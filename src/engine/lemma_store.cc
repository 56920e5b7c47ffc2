#include "engine/lemma_store.hpp"

#include <algorithm>
#include <atomic>
#include <tuple>

#include "runtime/stats.hpp"

namespace lacon {

namespace {
std::atomic<std::uint64_t> g_next_store_id{1};
}  // namespace

LemmaStore::LemmaStore()
    : instance_id_(g_next_store_id.fetch_add(1, std::memory_order_relaxed)),
      hits_(&runtime::Stats::global().counter("lemmas.hits")),
      misses_(&runtime::Stats::global().counter("lemmas.misses")),
      published_(&runtime::Stats::global().counter("lemmas.published")) {}

std::optional<ValenceInfo> LemmaStore::lookup(Signature sig, int budget) {
  Shard& shard = shard_for(sig);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(sig);
  if (it == shard.map.end() || it->second.lookahead > budget) {
    misses_->increment();
    return std::nullopt;
  }
  hits_->increment();
  ValenceInfo info;
  info.v0 = it->second.v0;
  info.v1 = it->second.v1;
  info.exact = true;
  return info;
}

void LemmaStore::publish(Signature sig, int lookahead,
                         const ValenceInfo& info) {
  if (!info.exact || lookahead < 0) return;
  Shard& shard = shard_for(sig);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.map.try_emplace(
      sig, Entry{lookahead, info.v0, info.v1});
  if (inserted) {
    shard.epoch.bump();
    published_->increment();
    return;
  }
  Entry& e = it->second;
  if (e.v0 != info.v0 || e.v1 != info.v1) return;  // collision: keep first
  if (lookahead < e.lookahead) {
    e.lookahead = lookahead;
    shard.epoch.bump();
  }
}

std::vector<LemmaStore::Fact> LemmaStore::export_facts() const {
  std::vector<Fact> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [sig, e] : shard.map) {
      out.push_back(Fact{sig.first, sig.second, e.lookahead, e.v0, e.v1});
    }
  }
  std::sort(out.begin(), out.end(), [](const Fact& a, const Fact& b) {
    return std::tie(a.sig_hi, a.sig_lo) < std::tie(b.sig_hi, b.sig_lo);
  });
  return out;
}

void LemmaStore::import_facts(const std::vector<Fact>& facts) {
  for (const Fact& f : facts) {
    ValenceInfo info;
    info.v0 = f.v0;
    info.v1 = f.v1;
    info.exact = true;
    publish({f.sig_hi, f.sig_lo}, f.lookahead, info);
  }
}

std::uint64_t LemmaStore::epoch() const noexcept {
  std::uint64_t sum = 0;
  for (const Shard& shard : shards_) sum += shard.epoch.load();
  return sum;
}

std::size_t LemmaStore::size() const noexcept {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace lacon
