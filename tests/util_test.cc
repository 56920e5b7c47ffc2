// Unit tests for src/util: hashing, lane loops, dense bitsets, process sets,
// RNG, permutations, tables.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitset.hpp"
#include "util/hash.hpp"
#include "util/lanes.hpp"
#include "util/permutations.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace lacon {
namespace {

TEST(Hash, Mix64IsInjectiveOnSmallRange) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(mix64(i)).second) << "collision at " << i;
  }
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2),
            hash_combine(hash_combine(0, 2), 1));
}

TEST(Hash, RangeDistinguishesLengthAndContent) {
  const std::vector<int> a = {1, 2, 3};
  const std::vector<int> b = {1, 2};
  const std::vector<int> c = {1, 2, 4};
  EXPECT_NE(hash_range(a), hash_range(b));
  EXPECT_NE(hash_range(a), hash_range(c));
  EXPECT_EQ(hash_range(a), hash_range(std::vector<int>{1, 2, 3}));
}

std::vector<std::int32_t> random_lanes(std::mt19937_64& rng, std::size_t n) {
  // Mix small non-negative ids, kUndecided (-1) and arbitrary negatives:
  // the hashes and fingerprints must sign-extend every lane.
  std::uniform_int_distribution<int> pick(0, 3);
  std::uniform_int_distribution<std::int32_t> any(
      std::numeric_limits<std::int32_t>::min(),
      std::numeric_limits<std::int32_t>::max());
  std::uniform_int_distribution<std::int32_t> small(0, 40);
  std::vector<std::int32_t> out(n);
  for (auto& v : out) {
    switch (pick(rng)) {
      case 0: v = -1; break;
      case 1: v = any(rng); break;
      default: v = small(rng); break;
    }
  }
  return out;
}

std::vector<std::uint64_t> random_words(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = rng();
  return out;
}

TEST(Lanes, WordsEqualDetectsEveryBitFlip) {
  std::mt19937_64 rng(0x7264731201u);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 33u}) {
    for (int round = 0; round < 20; ++round) {
      auto a = random_words(rng, n);
      auto b = a;
      const auto* pa = reinterpret_cast<const std::int64_t*>(a.data());
      const auto* pb = reinterpret_cast<const std::int64_t*>(b.data());
      EXPECT_TRUE(lanes::words_equal(pa, pb, n)) << "n=" << n;
      if (n == 0) continue;
      b[rng() % n] ^= 1ull << (rng() % 64);
      EXPECT_FALSE(lanes::words_equal(pa, pb, n)) << "n=" << n;
    }
  }
}

TEST(Lanes, LanesEqualSkipIgnoresOnlyTheErasedLane) {
  std::mt19937_64 rng(0x7264731202u);
  for (std::size_t n = 2; n <= 18; ++n) {
    for (int round = 0; round < 30; ++round) {
      const auto a = random_lanes(rng, n);
      auto b = a;
      const std::size_t skip = rng() % n;
      EXPECT_TRUE(lanes::lanes_equal_skip(a.data(), b.data(), n, skip));
      EXPECT_TRUE(
          lanes::lanes_equal_skip(a.data(), b.data(), n, lanes::kNoSkip));
      // A difference only at the erased lane is invisible with that skip,
      // a mismatch everywhere else.
      b[skip] ^= 0x40;
      EXPECT_TRUE(lanes::lanes_equal_skip(a.data(), b.data(), n, skip))
          << "n=" << n << " skip=" << skip;
      EXPECT_FALSE(
          lanes::lanes_equal_skip(a.data(), b.data(), n, lanes::kNoSkip));
      EXPECT_FALSE(
          lanes::lanes_equal_skip(a.data(), b.data(), n, (skip + 1) % n));
      b = a;
      const std::size_t other = rng() % n;
      b[other] += 3;
      EXPECT_EQ(lanes::lanes_equal_skip(a.data(), b.data(), n, skip),
                skip == other)
          << "n=" << n;
    }
  }
}

// The documented definition: per erased coordinate j, fold hash_combine over
// all sign-extended lanes i != j in increasing i (core/model.cc's
// similarity_fingerprint with `seed` standing in for the env hash).
std::uint64_t reference_fingerprint(std::uint64_t seed,
                                    const std::vector<std::int32_t>& locals,
                                    const std::vector<std::int32_t>& decisions,
                                    std::size_t j) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < locals.size(); ++i) {
    if (i == j) continue;
    h = hash_combine(h, static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(locals[i])));
    h = hash_combine(h, static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(decisions[i])));
  }
  return h;
}

TEST(Lanes, FingerprintLanesMatchesPerLaneFold) {
  std::mt19937_64 rng(0x7264731203u);
  for (std::size_t n = 2; n <= 10; ++n) {
    for (int round = 0; round < 40; ++round) {
      const auto locals = random_lanes(rng, n);
      const auto decisions = random_lanes(rng, n);
      const std::uint64_t seed = rng();
      std::vector<std::uint64_t> row(n, 0);
      lanes::fingerprint_lanes(seed, locals.data(), decisions.data(), n,
                               row.data());
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(row[j], reference_fingerprint(seed, locals, decisions, j))
            << "n=" << n << " j=" << j;
      }
    }
  }
}

// The documented definition of the position-keyed content hash sections:
// acc = Σ_i mix64(w_i ^ (seed + (i+1)*kHashPhi)), then fold seed and length
// through hash_combine.
std::uint64_t reference_section_hash(const std::vector<std::uint64_t>& words,
                                     std::uint64_t seed) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    acc += mix64(words[i] ^ (seed + (static_cast<std::uint64_t>(i) + 1) *
                                        lanes::kHashPhi));
  }
  return hash_combine(hash_combine(seed, words.size()), acc);
}

TEST(Lanes, HashWordsMatchesReferenceDefinition) {
  std::mt19937_64 rng(0x726473120au);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 33u}) {
    for (int round = 0; round < 20; ++round) {
      const auto w = random_words(rng, n);
      const std::uint64_t seed = rng();
      EXPECT_EQ(lanes::hash_words(
                    reinterpret_cast<const std::int64_t*>(w.data()), n, seed),
                reference_section_hash(w, seed))
          << "n=" << n;
    }
  }
}

TEST(Lanes, HashLanesSignExtendsLikeScalarCast) {
  std::mt19937_64 rng(0x726473120bu);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 17u}) {
    for (int round = 0; round < 30; ++round) {
      const auto v = random_lanes(rng, n);  // mixes negatives and -1
      const std::uint64_t seed = rng();
      std::vector<std::uint64_t> widened(n);
      for (std::size_t i = 0; i < n; ++i) {
        widened[i] =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(v[i]));
      }
      EXPECT_EQ(lanes::hash_lanes(v.data(), n, seed),
                reference_section_hash(widened, seed))
          << "n=" << n;
    }
  }
}

TEST(DenseBitset, InsertContainsAndGrowthMatchSetSemantics) {
  std::mt19937_64 rng(0x7264731207u);
  for (int round = 0; round < 30; ++round) {
    // Alternate a too-small capacity hint (forces regrowth) with none.
    const std::size_t universe = 1 + rng() % 300;
    DenseBitset a = round % 2 ? DenseBitset(universe / 4) : DenseBitset();
    std::set<std::size_t> want;
    for (int k = 0; k < 200; ++k) {
      const std::size_t i = rng() % universe;
      EXPECT_EQ(a.insert(i), want.insert(i).second) << "i=" << i;
    }
    EXPECT_EQ(a.size(), want.size());
    for (std::size_t i = 0; i < universe + 64; ++i) {
      ASSERT_EQ(a.contains(i), want.count(i) != 0) << "i=" << i;
    }
  }
}

TEST(ProcessSet, PrefixMatchesPaperBrackets) {
  // [k] = {1..k} in the paper; {0..k-1} in 0-based code.
  EXPECT_TRUE(ProcessSet::prefix(0).empty());
  const ProcessSet p3 = ProcessSet::prefix(3);
  EXPECT_EQ(p3.size(), 3);
  EXPECT_TRUE(p3.contains(0));
  EXPECT_TRUE(p3.contains(2));
  EXPECT_FALSE(p3.contains(3));
}

TEST(ProcessSet, InsertEraseUnionDifference) {
  ProcessSet s;
  s.insert(2);
  s.insert(5);
  EXPECT_EQ(s.size(), 2);
  s.erase(2);
  EXPECT_FALSE(s.contains(2));
  const ProcessSet u = s | ProcessSet::single(1);
  EXPECT_EQ(u.size(), 2);
  EXPECT_EQ((u - ProcessSet::single(5)).to_vector(),
            (std::vector<ProcessId>{1}));
}

TEST(ProcessSet, ToStringSorted) {
  ProcessSet s;
  s.insert(3);
  s.insert(0);
  EXPECT_EQ(s.to_string(), "{0,3}");
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowIsInRangeAndHitsAllValues) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.int_below(5);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Permutations, CountsAreFactorial) {
  EXPECT_EQ(all_permutations(3).size(), 6u);
  EXPECT_EQ(all_permutations(4).size(), 24u);
  // Dropping the last element of each permutation yields n! distinct
  // (n-1)-sequences (the missing element is determined by the sequence).
  EXPECT_EQ(all_drop_last(3).size(), 6u);
  EXPECT_EQ(all_drop_last(4).size(), 24u);
}

TEST(Permutations, DropLastEntriesAreInjectiveSequences) {
  for (const Permutation& p : all_drop_last(4)) {
    EXPECT_EQ(p.size(), 3u);
    std::set<ProcessId> distinct(p.begin(), p.end());
    EXPECT_EQ(distinct.size(), p.size());
  }
}

TEST(Permutations, TranspositionChainReachesTarget) {
  const Permutation from = {0, 1, 2, 3};
  const Permutation to = {3, 1, 0, 2};
  const auto chain = transposition_chain(from, to);
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(chain.front(), from);
  EXPECT_EQ(chain.back(), to);
  // Each consecutive pair differs by one adjacent swap.
  for (std::size_t i = 1; i < chain.size(); ++i) {
    int diffs = 0;
    for (std::size_t k = 0; k < from.size(); ++k) {
      if (chain[i - 1][k] != chain[i][k]) ++diffs;
    }
    EXPECT_EQ(diffs, 2);
  }
}

TEST(Permutations, TranspositionChainIdentity) {
  const Permutation p = {2, 0, 1};
  const auto chain = transposition_chain(p, p);
  EXPECT_EQ(chain.size(), 1u);
}

TEST(Table, RendersAlignedRows) {
  Table t({"model", "n", "ok"});
  t.add_row({"M^mf", "3", "yes"});
  t.add_row({"AsyncMP/S^per", "4", "no"});
  const std::string s = t.to_string("demo");
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("AsyncMP/S^per"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CellHelpers) {
  EXPECT_EQ(cell(42LL), "42");
  EXPECT_EQ(cell(true), "yes");
  EXPECT_EQ(cell(false), "no");
  EXPECT_EQ(cell(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace lacon
