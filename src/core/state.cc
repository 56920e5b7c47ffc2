#include "core/state.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "runtime/fault.hpp"
#include "runtime/stats.hpp"
#include "util/lanes.hpp"

namespace lacon {

namespace {

// Deterministic per-state byte estimate: header + flat payload + a flat
// allowance for the shard-index entry. A pure function of the state's
// content — never of pool occupancy or vector capacities — so the guard's
// memory budget reads the same total at a depth boundary for every worker
// count (chunk-tail waste in the pool varies with scheduling and is
// deliberately not counted).
std::size_t state_footprint(std::size_t env_len, std::size_t n) noexcept {
  const std::size_t words = env_len + 2 * ((n + 1) / 2);
  return 16 /* header */ + words * sizeof(std::int64_t) + 48 /* index */;
}

std::size_t parse_shard_env() noexcept {
  constexpr std::size_t kDefault = 64;
  const char* raw = std::getenv("LACON_ARENA_SHARDS");
  if (raw == nullptr || *raw == '\0') return kDefault;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  if (errno == ERANGE || end == raw || *end != '\0' || v < 1 || v > 1024) {
    std::fprintf(stderr,
                 "lacon: ignoring malformed LACON_ARENA_SHARDS=%s "
                 "(want an integer in [1, 1024]); using %zu\n",
                 raw, kDefault);
    return kDefault;
  }
  // Round up to a power of two so shard_for can mask.
  std::size_t shards = 1;
  while (shards < static_cast<std::size_t>(v)) shards *= 2;
  return shards;
}

}  // namespace

std::size_t arena_shard_count() noexcept {
  static const std::size_t shards = parse_shard_env();
  return shards;
}

bool operator==(const StateRef& a, const StateRef& b) noexcept {
  if (a.env.size() != b.env.size() || a.locals.size() != b.locals.size() ||
      a.decisions.size() != b.decisions.size()) {
    return false;
  }
  const std::size_t n = a.locals.size();
  return lanes::words_equal(a.env.data(), b.env.data(), a.env.size()) &&
         lanes::lanes_equal_skip(a.locals.data(), b.locals.data(), n,
                                 lanes::kNoSkip) &&
         lanes::lanes_equal_skip(a.decisions.data(), b.decisions.data(), n,
                                 lanes::kNoSkip);
}

bool agree_modulo(const StateRef& x, const StateRef& y, ProcessId j) {
  assert(x.locals.size() == y.locals.size());
  if (x.env.size() != y.env.size()) return false;
  // The lane loops read exactly size() elements, so vector-backed candidate
  // refs (no padded tail) and pool-backed refs mix freely here.
  if (!lanes::words_equal(x.env.data(), y.env.data(), x.env.size())) {
    return false;
  }
  const std::size_t n = x.locals.size();
  const auto skip = static_cast<std::size_t>(j);  // j == -1 -> kNoSkip
  return lanes::lanes_equal_skip(x.locals.data(), y.locals.data(), n, skip) &&
         lanes::lanes_equal_skip(x.decisions.data(), y.decisions.data(), n,
                                 skip);
}

StateArena::StateArena()
    : shard_mask_(arena_shard_count() - 1),
      shards_(std::make_unique<Shard[]>(arena_shard_count())),
      hits_(&runtime::Stats::global().counter("arena.state_hits")),
      misses_(&runtime::Stats::global().counter("arena.state_misses")),
      restored_(&runtime::Stats::global().counter("arena.state_restored")),
      mapped_(&runtime::Stats::global().counter("arena.state_mapped")),
      shard_waits_(
          &runtime::Stats::global().counter("arena.state_shard_waits")) {}

void StateArena::adopt_mapped_region(const std::int64_t* base,
                                     std::shared_ptr<const void> keepalive) {
  assert(size() == 0 && "mapped adoption requires an empty arena");
  mapped_base_ = base;
  mapped_keepalive_ = std::move(keepalive);
}

StateId StateArena::restore_mapped(const StateRef& s,
                                   std::uint64_t word_offset,
                                   std::uint64_t hash) {
  fault::maybe_throw_alloc_fault();
  assert(mapped_base_ != nullptr && "adopt_mapped_region first");
  assert(s.decisions.size() == s.locals.size() &&
         "StateRef carries one decision slot per process");
  assert(s.locals.size() % 2 == 0 &&
         "mapped adoption is even-n only (the pool pads odd-count lanes, "
         "the disk record does not)");
  assert(hash == content_hash(s) && "hash must be content_hash(s)");
  Shard& sh = shard_for(hash);
  std::unique_lock<std::mutex> lock(sh.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard_waits_->increment();
    lock.lock();
  }
  if (const StateId hit = sh.index.find(
          hash, [&](std::uint32_t id) { return state(id) == s; });
      hit != runtime::FlatIndex::kNone) {
    hits_->increment();
    return hit;
  }
  Header hd;
  hd.offset = word_offset;
  hd.env_len = static_cast<std::uint32_t>(s.env.size());
  hd.n = static_cast<std::uint32_t>(s.locals.size());
  const StateId id =
      static_cast<StateId>(next_id_.fetch_add(1, std::memory_order_acq_rel));
  headers_.slot(static_cast<std::size_t>(id)) = hd;
  // Adoption runs in stored-id order into an empty arena, so the mapped
  // prefix stays dense: every id below mapped_count_ resolves through the
  // mapping, everything at or above it through the pool.
  mapped_count_ = static_cast<std::size_t>(id) + 1;
  // Identical byte accounting to intern/restore: the guard's memory budget
  // must read the same total for the same content on every load path, or
  // truncation depths would differ between mmap and streaming warm starts.
  approx_bytes_.fetch_add(state_footprint(s.env.size(), s.locals.size()),
                          std::memory_order_relaxed);
  sh.index.insert(hash, id);
  restored_->increment();
  mapped_->increment();
  return id;
}

std::size_t StateArena::settled_size() const {
  // Every id below `settled` was claimed while its claimer held a shard
  // lock, which it releases only after writing the header. Passing through
  // each shard lock once after the read therefore orders all those writes
  // before the return, with never more than one lock held.
  const std::size_t settled = next_id_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i <= shard_mask_; ++i) {
    const std::lock_guard<std::mutex> pass(shards_[i].mu);
  }
  return settled;
}

StateId StateArena::intern(GlobalState s) {
  return intern_impl(std::move(s), misses_);
}

StateId StateArena::restore(GlobalState s) {
  return intern_impl(std::move(s), restored_);
}

StateId StateArena::intern_impl(GlobalState s,
                                runtime::Counter* miss_counter) {
  fault::maybe_throw_alloc_fault();
  assert(s.decisions.size() == s.locals.size() &&
         "GlobalState carries one decision slot per process");
  const StateRef candidate(s);
  const std::uint64_t h = content_hash(candidate);  // once, outside the lock
  Shard& sh = shard_for(h);
  std::unique_lock<std::mutex> lock(sh.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    shard_waits_->increment();  // contended: another intern holds this shard
    lock.lock();
  }
  if (const StateId hit = sh.index.find(
          h, [&](std::uint32_t id) { return state(id) == candidate; });
      hit != runtime::FlatIndex::kNone) {
    hits_->increment();
    return hit;
  }
  // Miss: copy the payload into the pool, claim a dense id, publish the
  // header, then index it. Only the index insert needs the shard lock for
  // correctness, but holding it across the copy also serialises racing
  // equal-content interns (same hash -> same shard), so they agree on one id.
  const std::size_t n = s.locals.size();
  const std::size_t lanes = lane_words(n);
  const std::size_t words = s.env.size() + 2 * lanes;
  Header hd;
  hd.env_len = static_cast<std::uint32_t>(s.env.size());
  hd.n = static_cast<std::uint32_t>(n);
  if (words != 0) {
    hd.offset = pool_.alloc(words);
    std::int64_t* base = pool_.mutable_data(hd.offset);
    std::copy(s.env.begin(), s.env.end(), base);
    std::int64_t* lanes_base = base + s.env.size();
    if (n % 2 != 0) {  // zero the padding halves of odd-count 32-bit lanes
      lanes_base[lanes - 1] = 0;
      lanes_base[2 * lanes - 1] = 0;
    }
    std::memcpy(lanes_base, s.locals.data(), n * sizeof(ViewId));
    std::memcpy(lanes_base + lanes, s.decisions.data(), n * sizeof(Value));
#ifndef NDEBUG
    if (n % 2 != 0) {
      // The odd-n padding lanes must stay zero forever (intern AND restore
      // both land here), so every packed pool word is a function of the
      // state's lanes alone. See DESIGN.md §13 and the store_test
      // restored-padding case.
      assert(reinterpret_cast<const std::uint32_t*>(lanes_base)[n] == 0 &&
             "odd-n locals padding lane must be zero");
      assert(reinterpret_cast<const std::uint32_t*>(lanes_base + lanes)[n] ==
                 0 &&
             "odd-n decisions padding lane must be zero");
    }
#endif
  }
  const StateId id =
      static_cast<StateId>(next_id_.fetch_add(1, std::memory_order_acq_rel));
  headers_.slot(static_cast<std::size_t>(id)) = hd;
  approx_bytes_.fetch_add(state_footprint(s.env.size(), n),
                          std::memory_order_relaxed);
  sh.index.insert(h, id);
  miss_counter->increment();
  return id;
}

}  // namespace lacon
