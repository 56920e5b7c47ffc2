// Property-based tests: Theorem 4.2 quantifies over *all* protocols, so a
// randomized sweep over decision rules must find a violated requirement for
// every single one of them in the 1-resilient models. Rules are generated
// from a seed via hashing (deterministic per model instance), giving a far
// wilder protocol family than the hand-written catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "analysis/reports.hpp"
#include "engine/explore.hpp"
#include "engine/spec.hpp"
#include "relation/similarity.hpp"
#include "runtime/fault.hpp"
#include "runtime/guard.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

#include "diameter_oracle.hpp"

namespace lacon {
namespace {

// A pseudo-random deterministic protocol: after its first phase, a process
// decides with hash-probability ~1/2 per new view, on a hash-chosen binary
// value. Deterministic as required: the decision depends only on (i, view).
class FuzzRule final : public DecisionRule {
 public:
  explicit FuzzRule(std::uint64_t seed) : seed_(seed) {}
  std::string name() const override {
    return "fuzz-" + std::to_string(seed_);
  }
  std::optional<Value> decide(ProcessId i, ViewId view,
                              ViewArena& arena) const override {
    if (arena.node(view).round < 1) return std::nullopt;
    const std::uint64_t h =
        mix64(seed_ ^ (static_cast<std::uint64_t>(view) << 8) ^
              static_cast<std::uint64_t>(i));
    if (h & 1) return std::nullopt;        // stay undecided this phase
    return static_cast<Value>((h >> 1) & 1);
  }

 private:
  std::uint64_t seed_;
};

class FuzzSweep : public ::testing::TestWithParam<ModelKind> {};

TEST_P(FuzzSweep, EveryFuzzProtocolViolatesSomething) {
  const ModelKind kind = GetParam();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const FuzzRule rule(seed);
    auto model = make_model(kind, 3, 1, rule);
    const TrilemmaVerdict v = consensus_trilemma(*model, 3, 3);
    EXPECT_NE(v.violated, TrilemmaVerdict::Violated::kNone)
        << model_kind_name(kind) << " fuzz seed " << seed << ": "
        << v.witness;
  }
}

INSTANTIATE_TEST_SUITE_P(Async, FuzzSweep,
                         ::testing::Values(ModelKind::kMobile,
                                           ModelKind::kSharedMem),
                         [](const auto& info) {
                           return info.param == ModelKind::kMobile
                                      ? "Mobile"
                                      : "SharedMem";
                         });

// Structural invariants hold for arbitrary rules: write-once decisions and
// binary decision values on every reachable state.
TEST(FuzzInvariants, WriteOnceAndBinaryDecisions) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const FuzzRule rule(seed);
    auto model = make_model(ModelKind::kMobile, 3, 1, rule);
    // Walk two layers; confirm decisions never change once set and stay in
    // {⊥, 0, 1}.
    for (StateId x : model->initial_states()) {
      for (StateId y : model->layer(x)) {
        for (StateId z : model->layer(y)) {
          for (ProcessId i = 0; i < 3; ++i) {
            const Value dy =
                model->state(y).decisions[static_cast<std::size_t>(i)];
            const Value dz =
                model->state(z).decisions[static_cast<std::size_t>(i)];
            if (dy != kUndecided) {
              EXPECT_EQ(dy, dz);
            }
            EXPECT_TRUE(dz == kUndecided || dz == 0 || dz == 1);
          }
        }
      }
    }
  }
}

// The similarity relation is symmetric and "reflexive enough" on arbitrary
// reachable states, for every model (including IIS via the suite models).
TEST(FuzzInvariants, SimilaritySymmetric) {
  const FuzzRule rule(42);
  for (ModelKind kind : {ModelKind::kMobile, ModelKind::kSharedMem,
                         ModelKind::kMsgPass}) {
    auto model = make_model(kind, 3, 1, rule);
    const StateId x0 = model->initial_states().front();
    const auto& layer = model->layer(x0);
    for (std::size_t a = 0; a < layer.size(); ++a) {
      for (std::size_t b = 0; b < layer.size(); ++b) {
        for (ProcessId j = 0; j < 3; ++j) {
          EXPECT_EQ(model->agree_modulo(layer[a], layer[b], j),
                    model->agree_modulo(layer[b], layer[a], j));
        }
      }
    }
  }
}

// The fingerprint index must agree with the naive sweep edge-for-edge on
// the wild decision vectors fuzz rules produce (decisions participate in
// agree_modulo and therefore in the fingerprints). All four models.
TEST(FuzzInvariants, IndexedSimilarityEqualsNaiveSweep) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const FuzzRule rule(seed);
    for (ModelKind kind : {ModelKind::kMobile, ModelKind::kSharedMem,
                           ModelKind::kMsgPass, ModelKind::kSync}) {
      const int depth = kind == ModelKind::kMsgPass ? 1 : 2;
      auto model = make_model(kind, 3, 1, rule);
      for (const auto& level : reachable_by_depth(*model, depth)) {
        const Graph naive = similarity_graph_naive(*model, level);
        const Graph indexed = similarity_graph(*model, level);
        ASSERT_EQ(naive.size(), indexed.size());
        ASSERT_EQ(naive.edge_count(), indexed.edge_count())
            << model_kind_name(kind) << " seed " << seed;
        for (std::size_t v = 0; v < naive.size(); ++v) {
          const auto nn = naive.neighbors(v);
          const auto ni = indexed.neighbors(v);
          ASSERT_TRUE(std::equal(nn.begin(), nn.end(), ni.begin(), ni.end()))
              << model_kind_name(kind) << " seed " << seed << " vertex " << v;
        }
      }
    }
  }
}

// Fault soak: fuzz protocols explored under a seeded fault plan covering
// every injection site. The guarded pipeline must stay crash-free and
// every Partial it returns must be well-formed — complete levels only,
// `completed` consistent with the value — no matter where the plan fires.
// ci.sh re-runs this under TSan/ASan with LACON_FAULT_SEED /
// LACON_FAULT_RATE overriding the defaults.
TEST(FaultSoak, GuardedFuzzExplorationSurvivesInjection) {
  fault::FaultConfig config{20260805, 0.02};
  if (const auto env = fault::config_from_env()) config = *env;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const FuzzRule rule(seed);
    for (ModelKind kind : {ModelKind::kMobile, ModelKind::kSharedMem}) {
      fault::FaultScope scope(config.seed + seed, config.rate);
      auto model = make_model(kind, 3, 1, rule);
      guard::Guard g;
      g.with_deadline(std::chrono::seconds(60));
      guard::Partial<std::vector<std::vector<StateId>>> partial =
          reachable_by_depth(*model, 3, g);
      EXPECT_EQ(partial.completed,
                partial.value.empty() ? 0 : partial.value.size() - 1)
          << model_kind_name(kind) << " fuzz seed " << seed;
      if (partial.value.empty()) continue;
      std::vector<StateId> last = partial.value.back();
      const auto sim = similarity_graph(*model, last, g);
      EXPECT_EQ(sim.value.size(), last.size());
      // The guard is sticky: once the exploration tripped, everything
      // downstream under the same guard must report truncation too.
      if (!partial.complete()) EXPECT_FALSE(sim.complete());
    }
  }
}

// ---------------------------------------------------------------------------
// Graph diameter differential fuzz: the bounded search against the
// all-sources oracle on seeded graph families, each under a random vertex
// relabeling and a random edge order — the bounding must hold for every
// vertex order, not just the natural one.

using EdgeList = std::vector<std::pair<std::size_t, std::size_t>>;

Graph relabeled(std::size_t size, EdgeList edges, Rng& rng) {
  std::vector<std::size_t> label(size);
  std::iota(label.begin(), label.end(), std::size_t{0});
  for (std::size_t i = size; i > 1; --i) {
    std::swap(label[i - 1], label[rng.below(i)]);
  }
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.below(i)]);
  }
  Graph g(size);
  for (const auto& [a, b] : edges) g.add_edge(label[a], label[b]);
  return g;
}

EdgeList path_edges(std::size_t size) {
  EdgeList e;
  for (std::size_t v = 0; v + 1 < size; ++v) e.emplace_back(v, v + 1);
  return e;
}

EdgeList tree_edges(std::size_t first, std::size_t size, Rng& rng) {
  EdgeList e;
  for (std::size_t v = 1; v < size; ++v) {
    e.emplace_back(first + rng.below(v), first + v);
  }
  return e;
}

TEST(FuzzDiameter, BoundedSearchEqualsAllSourcesOracle) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const std::size_t size = 3 + rng.below(38);
    const std::string tag = " seed " + std::to_string(seed);

    expect_diameter_matches_oracle(relabeled(size, path_edges(size), rng),
                                   "path" + tag);

    EdgeList cycle = path_edges(size);
    cycle.emplace_back(size - 1, 0);
    expect_diameter_matches_oracle(relabeled(size, cycle, rng), "cycle" + tag);

    const std::size_t w = 1 + rng.below(7);
    const std::size_t h = 1 + rng.below(7);
    EdgeList grid;
    for (std::size_t r = 0; r < h; ++r) {
      for (std::size_t c = 0; c < w; ++c) {
        if (c + 1 < w) grid.emplace_back(r * w + c, r * w + c + 1);
        if (r + 1 < h) grid.emplace_back(r * w + c, (r + 1) * w + c);
      }
    }
    expect_diameter_matches_oracle(relabeled(w * h, grid, rng), "grid" + tag);

    expect_diameter_matches_oracle(
        relabeled(size, tree_edges(0, size, rng), rng), "tree" + tag);

    EdgeList star;
    for (std::size_t v = 1; v < size; ++v) star.emplace_back(0, v);
    expect_diameter_matches_oracle(relabeled(size, star, rng), "star" + tag);

    const std::size_t k = 1 + size % 12;
    EdgeList complete;
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b) complete.emplace_back(a, b);
    }
    expect_diameter_matches_oracle(relabeled(k, complete, rng),
                                   "complete" + tag);

    // Sparse random: a random spanning tree plus ~size/4 chords, and an
    // Erdos-Renyi graph at mean degree ~2 (connected or not).
    EdgeList sparse = tree_edges(0, size, rng);
    for (std::size_t i = 0; i < size / 4; ++i) {
      const std::size_t a = rng.below(size);
      const std::size_t b = rng.below(size);
      if (a != b) sparse.emplace_back(a, b);
    }
    expect_diameter_matches_oracle(relabeled(size, sparse, rng),
                                   "sparse" + tag);
    EdgeList er;
    for (std::size_t a = 0; a < size; ++a) {
      for (std::size_t b = a + 1; b < size; ++b) {
        if (rng.below(size) < 2) er.emplace_back(a, b);
      }
    }
    expect_diameter_matches_oracle(relabeled(size, er, rng), "gnp" + tag);

    // Two trees side by side: disconnected, whatever vertex BFS starts at.
    const std::size_t split = 1 + rng.below(size - 1);
    EdgeList two = tree_edges(0, split, rng);
    const EdgeList rest = tree_edges(split, size - split, rng);
    two.insert(two.end(), rest.begin(), rest.end());
    expect_diameter_matches_oracle(relabeled(size, two, rng),
                                   "disconnected" + tag);
  }

  Rng rng(0);
  for (std::size_t size = 0; size <= 2; ++size) {
    expect_diameter_matches_oracle(relabeled(size, {}, rng),
                                   "edgeless n=" + std::to_string(size));
  }
  expect_diameter_matches_oracle(relabeled(2, {{0, 1}}, rng), "K2");
}

// Pendant-heavy families for the peel-then-core search: the diameter of
// each either stays inside one pendant tree or joins the trees of two core
// vertices, so every family mixes long tails with small cyclic cores.
TEST(FuzzDiameter, PendantStructureEqualsAllSourcesOracle) {
  // A cycle on vertices [first, first + size), size >= 3.
  const auto cycle_edges = [](std::size_t first, std::size_t size) {
    EdgeList e;
    for (std::size_t v = 0; v < size; ++v) {
      e.emplace_back(first + v, first + (v + 1) % size);
    }
    return e;
  };
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const std::string tag = " seed " + std::to_string(seed);

    // Caterpillar: a spine with 0..3 legs of length 1..3 per spine vertex.
    const std::size_t spine = 1 + rng.below(12);
    EdgeList caterpillar = path_edges(spine);
    std::size_t size = spine;
    for (std::size_t v = 0; v < spine; ++v) {
      for (std::size_t leg = rng.below(4); leg > 0; --leg) {
        std::size_t at = v;
        for (std::size_t len = 1 + rng.below(3); len > 0; --len) {
          caterpillar.emplace_back(at, size);
          at = size++;
        }
      }
    }
    expect_diameter_matches_oracle(relabeled(size, caterpillar, rng),
                                   "caterpillar" + tag);

    // Lollipop: a cycle with a path tail; the tail may be longer or
    // shorter than the cycle.
    const std::size_t ring = 3 + rng.below(10);
    const std::size_t tail = 1 + rng.below(15);
    EdgeList lollipop = cycle_edges(0, ring);
    for (std::size_t v = ring; v < ring + tail; ++v) {
      lollipop.emplace_back(v - 1, v);
    }
    expect_diameter_matches_oracle(relabeled(ring + tail, lollipop, rng),
                                   "lollipop" + tag);

    // A cycle with random trees hung on random cycle vertices.
    EdgeList hung = cycle_edges(0, ring);
    size = ring;
    for (std::size_t t = rng.below(5); t > 0; --t) {
      const std::size_t tree = 1 + rng.below(8);
      const EdgeList edges = tree_edges(size, tree, rng);
      hung.insert(hung.end(), edges.begin(), edges.end());
      hung.emplace_back(rng.below(ring), size);
      size += tree;
    }
    expect_diameter_matches_oracle(relabeled(size, hung, rng),
                                   "hung trees" + tag);

    // Two cycles joined by a path (a barbell); a path of 0 edges shares a
    // vertex, so the core is one figure eight.
    const std::size_t ring2 = 3 + rng.below(10);
    const std::size_t bridge = rng.below(6);
    EdgeList barbell = cycle_edges(0, ring);
    const std::size_t start2 = ring - 1 + bridge;
    for (std::size_t v = ring; v <= start2; ++v) barbell.emplace_back(v - 1, v);
    const EdgeList second = cycle_edges(start2, ring2);
    barbell.insert(barbell.end(), second.begin(), second.end());
    expect_diameter_matches_oracle(relabeled(start2 + ring2, barbell, rng),
                                   "barbell" + tag);

    // A tree component beside a cyclic one: the core BFS cannot see the
    // tree, so only the count of reached vertices proves disconnection.
    const std::size_t tree = 1 + rng.below(8);
    EdgeList split = tree_edges(0, tree, rng);
    const EdgeList cyclic = cycle_edges(tree, ring);
    split.insert(split.end(), cyclic.begin(), cyclic.end());
    split.emplace_back(tree, tree + ring);  // one pendant on the cycle
    const Graph disconnected = relabeled(tree + ring + 1, split, rng);
    expect_diameter_matches_oracle(disconnected, "tree beside cycle" + tag);
    const CountedDiameter d = counted_diameter(disconnected);
    EXPECT_FALSE(d.result.value.has_value()) << tag;
    EXPECT_TRUE(d.result.complete()) << tag;
    EXPECT_LE(d.bfs_runs, 1u) << tag;
  }

  // Tiny graphs, and a doubled edge, whose 2-core has two vertices.
  Rng rng(0);
  expect_diameter_matches_oracle(relabeled(1, {}, rng), "n=1");
  expect_diameter_matches_oracle(relabeled(2, {{0, 1}}, rng), "n=2");
  expect_diameter_matches_oracle(relabeled(2, {{0, 1}, {0, 1}}, rng),
                                 "doubled K2");
  expect_diameter_matches_oracle(
      relabeled(5, {{0, 1}, {0, 1}, {1, 2}, {2, 3}, {0, 4}}, rng),
      "doubled edge with tails");
}

}  // namespace
}  // namespace lacon
