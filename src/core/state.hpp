// Global states and the hash-consing state arena.
//
// Following Section 2 of the paper, a global state is a local state for the
// environment plus a local state for every process. For our full-information
// models a process local state is its interned view plus its write-once
// decision variable d_i; the environment's local state is a model-specific
// vector of words (register contents, in-transit messages, failed set, ...).
//
// Storage is flat: the arena keeps one contiguous word pool and stores each
// interned state as a single (offset, len) region — env words first, then
// the locals and decisions packed as 32-bit lanes. Readers see a StateRef of
// spans into the pool; GlobalState (three vectors) remains the construction
// type handed to intern().
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "runtime/flat_index.hpp"
#include "runtime/slot_vector.hpp"
#include "runtime/word_pool.hpp"
#include "util/hash.hpp"
#include "util/lanes.hpp"

namespace lacon::runtime {
class Counter;
}  // namespace lacon::runtime

namespace lacon {

struct GlobalState {
  std::vector<std::int64_t> env;  // model-specific environment encoding
  std::vector<ViewId> locals;     // per-process full-information view
  std::vector<Value> decisions;   // write-once d_i; kUndecided = ⊥

  bool operator==(const GlobalState&) const = default;
};

// A read-only, non-owning view of an interned (or about-to-be-interned)
// global state. Field names match GlobalState so read sites are
// source-compatible; the implicit constructor lets GlobalState lvalues flow
// into StateRef parameters. Spans stay valid for the arena's lifetime (pool
// chunks never move) or the GlobalState's lifetime respectively.
struct StateRef {
  std::span<const std::int64_t> env;
  std::span<const ViewId> locals;
  std::span<const Value> decisions;

  StateRef() = default;
  StateRef(const GlobalState& s) noexcept  // NOLINT: implicit by design
      : env(s.env), locals(s.locals), decisions(s.decisions) {}
  StateRef(std::span<const std::int64_t> e, std::span<const ViewId> l,
           std::span<const Value> d) noexcept
      : env(e), locals(l), decisions(d) {}
};

// Content equality (spans have no operator==).
bool operator==(const StateRef& a, const StateRef& b) noexcept;

// x and y agree modulo j: environments equal and all process local states
// (view and decision variable) equal except possibly j's (Section 2).
bool agree_modulo(const StateRef& x, const StateRef& y, ProcessId j);

// Shard count for the concurrent arenas: LACON_ARENA_SHARDS, rounded up to
// a power of two and clamped to [1, 1024]; default 64. Parsed once per
// process (malformed values warn once and fall back, like LACON_THREADS).
std::size_t arena_shard_count() noexcept;

// Interns GlobalStates; equal states receive equal StateIds. This makes the
// paper's state-equality arguments — e.g. x(j,[0]) == x(j',[0]) in the mobile
// model, or the permutation-layering diamond — checkable as id equality.
//
// Thread-safety: intern() may be called concurrently (the parallel runtime's
// layer computations do). The index is hash-sharded with striped mutexes
// (LACON_ARENA_SHARDS, default 64), each shard one flat open-addressing
// table (runtime/flat_index.hpp), so interns of distinct states proceed in
// parallel; racing interns of equal content land in the same shard, are
// serialized there, and agree on the id. Ids are claimed from one atomic
// counter, so they stay dense — but *which* content gets which id depends on
// scheduling. Canonical cross-run output must go through env_to_string /
// ViewArena::to_string, never raw ids (DESIGN.md §9).
//
// state() is lock-free and safe for any id the caller received through
// intern() or another happens-before edge.
class StateArena {
 public:
  StateArena();

  StateId intern(GlobalState s);

  // Re-interns a state streamed out of a lacon.store.v1 snapshot
  // (store/snapshot.hpp). Identical to intern() — same pool copy, same
  // index insert, same id assignment — except that a fresh insertion bumps
  // "arena.state_restored" instead of the miss counter, so the arena miss
  // count after a warm start reflects only *new* content discovered by the
  // analysis, not the snapshot replay itself.
  StateId restore(GlobalState s);

  // --- mmap zero-copy adoption (store/snapshot.cc, FORMATS.md) -------------
  //
  // A snapshot loader may adopt the flat state payloads of an mmap'ed
  // lacon.store.v1 file in place instead of copying them into the pool:
  // adopt_mapped_region() pins the mapping (released when the arena dies)
  // and restore_mapped() interns a state whose payload already lives
  // `word_offset` words past the mapped base. Only legal on an empty arena
  // before any analysis, in stored-id order, and only for layouts whose
  // on-disk record payload is byte-identical to the pool encoding (even n:
  // no odd-count lane padding). Mapped ids occupy [0, mapped_count_)
  // densely; state() serves them from the mapping and everything younger
  // from the pool. `hash` must be content_hash of `s` (callers compute it
  // once for the digest cross-check anyway). Counts into both
  // "arena.state_restored" (it is a restore) and "arena.state_mapped".
  void adopt_mapped_region(const std::int64_t* base,
                           std::shared_ptr<const void> keepalive);
  StateId restore_mapped(const StateRef& s, std::uint64_t word_offset,
                         std::uint64_t hash);

  StateRef state(StateId id) const noexcept {
    const Header& h = headers_[static_cast<std::size_t>(id)];
    if (h.total_words() == 0) return {};
    const std::int64_t* base = static_cast<std::size_t>(id) < mapped_count_
                                   ? mapped_base_ + h.offset
                                   : pool_.data(h.offset);
    const auto* locals =
        reinterpret_cast<const ViewId*>(base + h.env_len);
    const auto* decisions = reinterpret_cast<const Value*>(
        base + h.env_len + lane_words(h.n));
    return {{base, h.env_len}, {locals, h.n}, {decisions, h.n}};
  }

  std::size_t size() const noexcept {
    return next_id_.load(std::memory_order_acquire);
  }

  // size() for a reader racing interning: every id below the result has its
  // header and payload written (an intern claims its id and writes the
  // header under its shard lock; this passes through every shard lock once
  // after reading the size). One lock per shard: for the store's id-horizon
  // captures, not for hot paths.
  std::size_t settled_size() const;

  // Approximate heap footprint of the interned states. Deliberately a
  // deterministic function of the interned *content* (header + payload words
  // + a flat index allowance per unique state), not of pool occupancy:
  // chunk-tail waste depends on scheduling, and the guard's memory budget
  // must read the same value at every depth boundary regardless of worker
  // count. Monotone, relaxed reads.
  std::size_t approx_bytes() const noexcept {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

  // Three position-keyed sections chained through util/lanes.hpp
  // hash_words/hash_lanes: the env words seed the locals section, which
  // seeds the decisions section. This is explore's intern-path hot loop.
  static std::uint64_t content_hash(const StateRef& s) noexcept {
    std::uint64_t h =
        lanes::hash_words(s.env.data(), s.env.size(), 0x6c61636f6eULL);
    h = lanes::hash_lanes(s.locals.data(), s.locals.size(), h);
    return lanes::hash_lanes(s.decisions.data(), s.decisions.size(), h);
  }

 private:
  struct Header {
    std::uint64_t offset = 0;
    std::uint32_t env_len = 0;
    std::uint32_t n = 0;  // process count: len of locals and of decisions

    std::size_t total_words() const noexcept {
      return env_len + 2 * lane_words(n);
    }
  };
  struct alignas(64) Shard {
    std::mutex mu;
    // hash -> id; equality is confirmed against the pooled payload, so the
    // index stores no second copy of any state.
    runtime::FlatIndex index;
  };

  // 32-bit lanes (locals, decisions) pack two per word.
  static constexpr std::size_t lane_words(std::size_t n) noexcept {
    return (n + 1) / 2;
  }

  Shard& shard_for(std::uint64_t h) const noexcept {
    return shards_[(h >> 40) & shard_mask_];
  }

  StateId intern_impl(GlobalState s, runtime::Counter* miss_counter);

  std::size_t shard_mask_;
  std::unique_ptr<Shard[]> shards_;
  mutable runtime::WordPool pool_;
  runtime::ConcurrentSlotVector<Header> headers_;
  std::atomic<std::size_t> next_id_{0};
  std::atomic<std::size_t> approx_bytes_{0};
  // Mapped-snapshot adoption state. Plain (non-atomic) members by the same
  // publication discipline as headers_ slot contents: both are written only
  // during the single-threaded snapshot load, and every id reaches another
  // thread through a synchronized channel (shard mutexes, the runtime's work
  // queues) established afterwards.
  const std::int64_t* mapped_base_ = nullptr;
  std::size_t mapped_count_ = 0;
  std::shared_ptr<const void> mapped_keepalive_;
  runtime::Counter* hits_;
  runtime::Counter* misses_;
  runtime::Counter* restored_;
  runtime::Counter* mapped_;
  runtime::Counter* shard_waits_;
};

}  // namespace lacon
