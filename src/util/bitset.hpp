// DenseBitset: a growable bit-vector for sets of dense small integers.
//
// StateIds are dense (the arena hands them out from an atomic counter
// starting at 0), so the engines' visited sets — reachable_by_depth's
// frontier dedup, the spec/covering/lemma BFS sweeps, the DOT exporter —
// are sets over [0, arena.size()). An unordered_set pays a heap node and a
// hash per insert for what is one bit of information; this bitset makes
// insert/contains a shift and a mask, and the whole set a contiguous
// allocation that grows geometrically.
//
// Not thread-safe; the engines use it from their serial merge phases only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lacon {

class DenseBitset {
 public:
  DenseBitset() = default;
  // `capacity_hint`: number of ids expected (e.g. arena.size()); avoids the
  // first few regrows when known.
  explicit DenseBitset(std::size_t capacity_hint) {
    words_.resize(word_index(capacity_hint) + 1, 0);
  }

  // Inserts i; returns true iff it was not present.
  bool insert(std::size_t i) {
    const std::size_t w = word_index(i);
    if (w >= words_.size()) grow(w);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (words_[w] & bit) return false;
    words_[w] |= bit;
    ++count_;
    return true;
  }

  bool contains(std::size_t i) const noexcept {
    const std::size_t w = word_index(i);
    return w < words_.size() && (words_[w] & (std::uint64_t{1} << (i & 63)));
  }

  // Number of set bits.
  std::size_t size() const noexcept { return count_; }

 private:
  static std::size_t word_index(std::size_t i) noexcept { return i >> 6; }

  void grow(std::size_t w) {
    std::size_t target = words_.empty() ? std::size_t{8} : words_.size();
    while (target <= w) target *= 2;
    words_.resize(target, 0);
  }

  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

}  // namespace lacon
