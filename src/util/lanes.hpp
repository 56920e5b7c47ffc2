// Lane loops over the flat WordPool state encoding (DESIGN.md §13).
//
// An interned GlobalState is one contiguous word region: env int64 words,
// then locals and decisions packed as 32-bit lanes, two per word, with
// odd-n padding lanes zeroed. These are the loops of the layered analysis
// that walk that encoding:
//
//   words_equal / lanes_equal_skip — the agree_modulo compare: env-word
//       equality plus a 32-bit-lane compare that ignores the erased process
//       j's slot (core/state.cc, both msgpass models).
//   fingerprint_lanes — all n erase-one similarity fingerprints of a state
//       in one pass over its lanes instead of n (core/model.cc).
//   hash_words / hash_lanes — the sections of StateArena::content_hash,
//       explore's intern-path hot loop (core/state.hpp).
//
// They are plain scalar code. Hand-written AVX2/NEON versions selected at
// run time measured at parity end to end and were removed; the loops are
// kept simple enough for the compiler to vectorize where it pays.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/hash.hpp"

namespace lacon::lanes {

// "No lane erased" sentinel for lanes_equal_skip (any value >= n works).
inline constexpr std::size_t kNoSkip = ~std::size_t{0};

// Position key stride of hash_words/hash_lanes (the splitmix64 increment).
inline constexpr std::uint64_t kHashPhi = 0x9e3779b97f4a7c15ULL;

// All n 64-bit words equal.
inline bool words_equal(const std::int64_t* a, const std::int64_t* b,
                        std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// All n 32-bit lanes equal, ignoring lane `skip` (pass kNoSkip to compare
// every lane). Reads exactly n lanes from each side, so vector-backed spans
// without padded tails mix freely with pool-backed ones.
inline bool lanes_equal_skip(const std::int32_t* a, const std::int32_t* b,
                             std::size_t n, std::size_t skip) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (i != skip && a[i] != b[i]) return false;
  }
  return true;
}

// Erase-one fingerprint row: out[j] becomes the fold of hash_combine over
//   seed, locals[0], decisions[0], ..., locals[n-1], decisions[n-1]
// with locals[j] and decisions[j] skipped — exactly
// LayeredModel::similarity_fingerprint(x, j) when `seed` is the state's env
// hash. Lanes are sign-extended to 64 bits before combining, matching
// static_cast<std::uint64_t>(ViewId) on int32 lanes.
inline void fingerprint_lanes(std::uint64_t seed, const std::int32_t* locals,
                              const std::int32_t* decisions, std::size_t n,
                              std::uint64_t* out) noexcept {
  for (std::size_t j = 0; j < n; ++j) out[j] = seed;
  // Item-major instead of row-major: each lane j still receives exactly the
  // per-j fold's operations in the per-j fold's order (items of i < i' are
  // combined before i'), so the row is bit-identical to n independent
  // similarity_fingerprint calls while touching each lane pair once.
  for (std::size_t i = 0; i < n; ++i) {
    const auto l =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(locals[i]));
    const auto d =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(decisions[i]));
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      out[j] = hash_combine(hash_combine(out[j], l), d);
    }
  }
}

// Position-keyed content hash over n 64-bit words — one section of
// StateArena::content_hash:
//   acc  = Σ_i mix64(w_i ^ (seed + (i+1) * kHashPhi))   (mod 2^64)
//   hash = hash_combine(hash_combine(seed, n), acc)
// Snapshots store digests summed over these hashes (FORMATS.md
// kStateDigests), so the definition is part of the store format.
inline std::uint64_t hash_words(const std::int64_t* w, std::size_t n,
                                std::uint64_t seed) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += mix64(static_cast<std::uint64_t>(w[i]) ^
                 (seed + (static_cast<std::uint64_t>(i) + 1) * kHashPhi));
  }
  return hash_combine(hash_combine(seed, n), acc);
}

// Same hash over n 32-bit lanes, each sign-extended to 64 bits first
// (the locals/decisions sections).
inline std::uint64_t hash_lanes(const std::int32_t* v, std::size_t n,
                                std::uint64_t seed) noexcept {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += mix64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v[i])) ^
                 (seed + (static_cast<std::uint64_t>(i) + 1) * kHashPhi));
  }
  return hash_combine(hash_combine(seed, n), acc);
}

}  // namespace lacon::lanes
