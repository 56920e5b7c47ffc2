// A mutation counter for a structure whose writers one mutex serializes,
// read without that mutex. Sharded caches keep one per shard and sum them:
// store::Wal compares two sums to tell that nothing changed in between.
#pragma once

#include <atomic>
#include <cstdint>

namespace lacon::runtime {

class LockedEpoch {
 public:
  // Call only while holding the mutex that guards the counted structure:
  // with writers serialized, a plain load-add-store cannot lose a bump, and
  // it costs no locked read-modify-write on the hot path.
  void bump() noexcept {
    value_.store(value_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
  }

  std::uint64_t load() const noexcept {
    return value_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

}  // namespace lacon::runtime
