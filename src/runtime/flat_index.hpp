// FlatIndex: the per-shard hash -> id index of the hash-consing arenas
// (core/state.hpp, core/view.hpp).
//
// One open-addressing table of (64-bit hash, 32-bit id) slots: capacity a
// power of two, linear probing from the hash's low bits, doubled before an
// insert would pass half load. The table stores no content, so equal hashes
// are told apart by the caller's `eq(id)`, which compares the candidate
// against the arena-resident state or node. There are no per-entry heap
// nodes: a lookup touches one contiguous run of slots, and releasing an
// index frees one array.
//
// Not synchronized: each arena shard guards its index with the shard mutex
// it already holds around lookup-then-insert. The arenas pick the shard from
// the high hash bits (>> 40), so probing on the low bits stays spread within
// a shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace lacon::runtime {

class FlatIndex {
 public:
  // "No such entry"; also marks an empty slot, so it is never a valid id.
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  // The id stored under `hash` for which eq(id) holds, or kNone.
  template <typename Eq>
  std::uint32_t find(std::uint64_t hash, Eq&& eq) const {
    if (capacity_ == 0) return kNone;
    const std::size_t mask = capacity_ - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.hash == hash && eq(s.id)) return s.id;
    }
  }

  // Adds (hash, id). The caller has just seen find() miss for this content
  // under the same lock, so no equal entry exists.
  void insert(std::uint64_t hash, std::uint32_t id) {
    if (2 * (size_ + 1) > capacity_) grow();
    place(slots_.get(), capacity_ - 1, hash, id);
    ++size_;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t id = kNone;
  };

  static void place(Slot* slots, std::size_t mask, std::uint64_t hash,
                    std::uint32_t id) noexcept {
    std::size_t i = hash & mask;
    while (slots[i].id != kNone) i = (i + 1) & mask;
    slots[i] = Slot{hash, id};
  }

  void grow() {
    const std::size_t grown = capacity_ == 0 ? kInitialCapacity : 2 * capacity_;
    auto fresh = std::make_unique<Slot[]>(grown);
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (slots_[i].id != kNone) {
        place(fresh.get(), grown - 1, slots_[i].hash, slots_[i].id);
      }
    }
    slots_ = std::move(fresh);
    capacity_ = grown;
  }

  static constexpr std::size_t kInitialCapacity = 16;

  std::unique_ptr<Slot[]> slots_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace lacon::runtime
