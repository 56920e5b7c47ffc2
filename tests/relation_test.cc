// Unit tests for src/relation: graph algorithms, the similarity relation and
// the fingerprint-indexed similarity graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "analysis/reports.hpp"
#include "core/decision_rule.hpp"
#include "core/sym.hpp"
#include "engine/explore.hpp"
#include "models/mobile/mobile_model.hpp"
#include "models/msgpass/msgpass_model.hpp"
#include "models/msgpass/msgpass_sync_model.hpp"
#include "relation/graph.hpp"
#include "relation/similarity.hpp"
#include "runtime/fault.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

#include "diameter_oracle.hpp"

namespace lacon {
namespace {

// Edge-for-edge equality: same vertices, same edges, same adjacency order.
bool graphs_identical(const Graph& a, const Graph& b) {
  if (a.size() != b.size() || a.edge_count() != b.edge_count()) return false;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

TEST(Graph, EmptyAndSingletonAreConnected) {
  EXPECT_TRUE(Graph(0).connected());
  EXPECT_TRUE(Graph(1).connected());
  EXPECT_FALSE(Graph(2).connected());
}

TEST(Graph, PathConnectivityAndDiameter) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.connected());
  ASSERT_TRUE(g.diameter());
  EXPECT_EQ(*g.diameter(), 3u);
  EXPECT_EQ(*g.distance(0, 3), 3u);
  EXPECT_EQ(g.shortest_path(0, 3).size(), 4u);
}

TEST(Graph, DisconnectedComponentsAndDiameter) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.connected());
  EXPECT_FALSE(g.diameter());
  EXPECT_FALSE(g.distance(0, 2));
  EXPECT_TRUE(g.shortest_path(0, 2).empty());
  const auto comp = g.components();
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[4]);
}

TEST(Graph, FromRelationBuildsSymmetricEdges) {
  const Graph g = Graph::from_relation(
      4, [](std::size_t a, std::size_t b) { return a + 1 == b; });
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(Graph, CompleteGraphDiameterOne) {
  const Graph g =
      Graph::from_relation(6, [](std::size_t, std::size_t) { return true; });
  ASSERT_TRUE(g.diameter());
  EXPECT_EQ(*g.diameter(), 1u);
}

// Property test: on random graphs, distance() is symmetric and satisfies
// the triangle inequality along shortest paths.
TEST(Graph, RandomGraphDistanceProperties) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t size = 2 + rng.below(10);
    Graph g(size);
    for (std::size_t a = 0; a < size; ++a) {
      for (std::size_t b = a + 1; b < size; ++b) {
        if (rng.below(3) == 0) g.add_edge(a, b);
      }
    }
    for (std::size_t a = 0; a < size; ++a) {
      for (std::size_t b = 0; b < size; ++b) {
        const auto ab = g.distance(a, b);
        const auto ba = g.distance(b, a);
        ASSERT_EQ(ab.has_value(), ba.has_value());
        if (ab) {
          ASSERT_EQ(*ab, *ba);
          const auto path = g.shortest_path(a, b);
          ASSERT_EQ(path.size(), *ab + 1);
        }
      }
    }
  }
}

TEST(Similarity, InitialStatesDifferingInOneInput) {
  auto rule = never_decide();
  MobileModel model(3, *rule);
  const auto& con0 = model.initial_states();
  ASSERT_EQ(con0.size(), 8u);
  // Count similar pairs: each pair of assignments at Hamming distance 1.
  int similar_pairs = 0;
  for (std::size_t a = 0; a < con0.size(); ++a) {
    for (std::size_t b = a + 1; b < con0.size(); ++b) {
      if (similar(model, con0[a], con0[b])) ++similar_pairs;
    }
  }
  // The 3-cube has 12 edges.
  EXPECT_EQ(similar_pairs, 12);
}

TEST(Similarity, WitnessIsTheDifferingProcess) {
  auto rule = never_decide();
  MobileModel model(3, *rule);
  const auto& con0 = model.initial_states();
  for (std::size_t a = 0; a < con0.size(); ++a) {
    for (std::size_t b = a + 1; b < con0.size(); ++b) {
      const auto w = similarity_witness(model, con0[a], con0[b]);
      if (!w) continue;
      EXPECT_TRUE(model.agree_modulo(con0[a], con0[b], *w));
    }
  }
}

TEST(Similarity, Con0GraphIsCube) {
  auto rule = never_decide();
  MobileModel model(4, *rule);
  const auto& con0 = model.initial_states();
  const Graph g = similarity_graph(model, con0);
  EXPECT_TRUE(g.connected());
  // Q4: 32 edges, diameter 4.
  EXPECT_EQ(g.edge_count(), 32u);
  ASSERT_TRUE(s_diameter(model, con0));
  EXPECT_EQ(*s_diameter(model, con0), 4u);
}

TEST(Similarity, SelfSimilarityHoldsViaAnyWitness) {
  auto rule = never_decide();
  MobileModel model(2, *rule);
  const auto& con0 = model.initial_states();
  for (StateId x : con0) {
    EXPECT_TRUE(similar(model, x, x));
  }
}

// --- CSR layout ---

TEST(Graph, NeighborRowsPreserveInsertionOrder) {
  // The CSR rows must reproduce the classic push-back adjacency order:
  // edge (a, b) appends b to a's row and a to b's row, in edge order.
  Graph g(4);
  g.add_edge(2, 0);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto row = g.neighbors(2);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 0u);
  EXPECT_EQ(row[1], 1u);
  EXPECT_EQ(row[2], 3u);
  // Queries after further edge insertions see the refreshed layout.
  g.add_edge(0, 1);
  EXPECT_EQ(g.neighbors(0).size(), 2u);
  EXPECT_EQ(g.edge_count(), 4u);
}

TEST(Graph, FromSortedEdgesMatchesFromRelation) {
  const auto related = [](std::size_t a, std::size_t b) {
    return (a + b) % 3 == 0;
  };
  const Graph swept = Graph::from_relation(24, related);
  std::vector<Graph::Edge> edges;
  for (std::size_t a = 0; a < 24; ++a) {
    for (std::size_t b = a + 1; b < 24; ++b) {
      if (related(a, b)) {
        edges.emplace_back(static_cast<Graph::Vertex>(a),
                           static_cast<Graph::Vertex>(b));
      }
    }
  }
  const Graph direct = Graph::from_sorted_edges(24, std::move(edges));
  EXPECT_TRUE(graphs_identical(swept, direct));
}

// --- Fingerprint-indexed similarity graph ---

// The index must reproduce the naive sweep's graph *exactly* — same edges,
// same adjacency order — on every model, including the synchronous one
// whose states record failures (exercising the witness liveness condition)
// and the message-passing ones with overridden fingerprints.
TEST(SimilarityIndex, IndexedEqualsNaiveAcrossModelsAndDepths) {
  struct Cfg {
    ModelKind kind;
    int n;
    int t;
    int depth;
  };
  const Cfg cfgs[] = {
      {ModelKind::kMobile, 3, 1, 2},    {ModelKind::kMobile, 4, 1, 1},
      {ModelKind::kSharedMem, 3, 1, 1}, {ModelKind::kMsgPass, 3, 1, 1},
      {ModelKind::kSync, 3, 1, 2},      {ModelKind::kSync, 4, 2, 1},
  };
  auto rule = min_after_round(2);
  for (const Cfg& cfg : cfgs) {
    auto model = make_model(cfg.kind, cfg.n, cfg.t, *rule);
    for (const auto& level : reachable_by_depth(*model, cfg.depth)) {
      const Graph naive = similarity_graph_naive(*model, level);
      const Graph indexed = similarity_graph(*model, level);
      EXPECT_TRUE(graphs_identical(naive, indexed))
          << model->name() << " n=" << cfg.n << " |X|=" << level.size();
    }
  }
}

// Soundness contract of the msgpass fingerprint overrides: agree_modulo
// truth implies fingerprint equality (for every erased coordinate), so the
// index can never drop a ~s edge.
template <typename Model>
void check_fingerprint_contract(Model& model, int depth) {
  const std::vector<StateId> states = reachable_states(model, depth);
  for (StateId x : states) {
    for (StateId y : states) {
      for (ProcessId j = 0; j < model.n(); ++j) {
        if (model.agree_modulo(x, y, j)) {
          ASSERT_EQ(model.similarity_fingerprint(x, j),
                    model.similarity_fingerprint(y, j))
              << model.name() << " states " << x << "," << y << " mod " << j;
        }
      }
    }
  }
}

TEST(SimilarityIndex, MsgPassFingerprintRespectsAgreeModulo) {
  auto rule = min_after_round(2);
  MsgPassModel model(3, *rule);
  check_fingerprint_contract(model, 1);
}

TEST(SimilarityIndex, MsgPassSyncFingerprintRespectsAgreeModulo) {
  auto rule = min_after_round(2);
  MsgPassSyncModel model(3, *rule);
  check_fingerprint_contract(model, 2);
}

// The mailbox masking is not vacuous: two states whose in-transit messages
// differ only inside j's mailbox must agree modulo j and share the erase-j
// fingerprint, while differing at every other erased coordinate.
TEST(SimilarityIndex, MailboxMaskedFingerprintIgnoresOwnMailbox) {
  // The schedules below name raw process coordinates; the orbit quotient
  // would intern a relabeled representative instead.
  sym::ScopedSymmetry off(false);
  auto rule = never_decide();
  MsgPassModel model(3, *rule);
  const StateId x0 = model.initial_states().front();
  // Full round [0,1,2] vs. the same with {0,1} concurrent: the paper's
  // Section 5.1 chain — they agree modulo 1 only.
  const StateId a = model.apply_schedule(
      x0, Schedule{{0, -1}, {1, -1}, {2, -1}});
  const StateId b = model.apply_schedule(x0, Schedule{{0, 1}, {2, -1}});
  ASSERT_TRUE(model.agree_modulo(a, b, 1));
  EXPECT_EQ(model.similarity_fingerprint(a, 1),
            model.similarity_fingerprint(b, 1));
  EXPECT_FALSE(model.agree_modulo(a, b, 0));
  EXPECT_NE(model.similarity_fingerprint(a, 0),
            model.similarity_fingerprint(b, 0));
}

// Differential oracle: the bounded diameter equals the all-sources one on
// the Con_0 / depth-1 / depth-2 frontiers of every model kind.
TEST(GraphDiameter, BoundedSearchEqualsAllSourcesOnModelFrontiers) {
  struct Cfg {
    ModelKind kind;
    int n;
    int t;
  };
  const Cfg cfgs[] = {
      {ModelKind::kMobile, 3, 1},    {ModelKind::kMobile, 4, 1},
      {ModelKind::kSharedMem, 3, 1}, {ModelKind::kMsgPass, 3, 1},
      {ModelKind::kSync, 3, 1},      {ModelKind::kSync, 4, 2},
  };
  auto rule = min_after_round(2);
  for (const Cfg& cfg : cfgs) {
    auto model = make_model(cfg.kind, cfg.n, cfg.t, *rule);
    const auto levels = reachable_by_depth(*model, 2);
    for (std::size_t d = 0; d < levels.size(); ++d) {
      expect_diameter_matches_oracle(
          similarity_graph(*model, levels[d]),
          model->name() + " n=" + std::to_string(cfg.n) +
              " depth=" + std::to_string(d));
    }
  }
  MsgPassSyncModel sync_mp(3, *rule);
  const auto levels = reachable_by_depth(sync_mp, 2);
  for (std::size_t d = 0; d < levels.size(); ++d) {
    expect_diameter_matches_oracle(
        similarity_graph(sync_mp, levels[d]),
        sync_mp.name() + " depth=" + std::to_string(d));
  }
}

// Mobile n=4, t=1, depth 2 (2704 states, s-diameter 173): the source
// sequence depends on the graph alone, so the value, the settled count and
// the exact BFS count are the same at every worker count. The count is the
// pinned work figure of this analysis: the search runs its BFS over the
// 1744-vertex 2-core left after peeling the pendant trees; the all-sources
// search ran 2704, and bounding over the whole graph 308.
TEST(GraphDiameter, WorkerCountIdentityAndExactBfsCount) {
  constexpr std::uint64_t kBfsRuns = 204;
  auto rule = min_after_round(2);
  for (const unsigned workers : {1u, 4u}) {
    runtime::WorkerCountOverride scoped_workers(workers);
    auto model = make_model(ModelKind::kMobile, 4, 1, *rule);
    const Graph g = similarity_graph(*model, reachable_by_depth(*model, 2)[2]);
    ASSERT_EQ(2704u, g.size());
    const CountedDiameter d = counted_diameter(g);
    ASSERT_TRUE(d.result.value.has_value()) << workers << " workers";
    EXPECT_EQ(173u, *d.result.value) << workers << " workers";
    EXPECT_EQ(2704u, d.result.completed) << workers << " workers";
    EXPECT_EQ(kBfsRuns, d.bfs_runs) << workers << " workers";
  }
  EXPECT_LT(kBfsRuns, 2704u / 4);
}

// Fault soak: the guarded bounding search under a seeded plan covering
// every injection site. A complete answer is the oracle's; a truncated one
// is a lower bound over a strict subset of settled vertices. ci.sh re-runs
// this under TSan/ASan with LACON_FAULT_SEED / LACON_FAULT_RATE overriding
// the defaults.
TEST(FaultSoak, GuardedDiameterIsALowerBoundUnderInjection) {
  fault::FaultConfig config{20260805, 0.02};
  if (const auto env = fault::config_from_env()) config = *env;
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  for (const auto& level : reachable_by_depth(*model, 2)) {
    const Graph g = similarity_graph(*model, level);
    const auto truth = all_sources_diameter(g);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      fault::FaultScope scope(config.seed + seed, config.rate);
      guard::Guard guard;
      guard.with_deadline(std::chrono::seconds(60));
      const auto partial = g.diameter(guard);
      if (partial.complete()) {
        EXPECT_EQ(truth, partial.value) << "seed " << seed;
        EXPECT_EQ(g.size(), partial.completed) << "seed " << seed;
        continue;
      }
      EXPECT_LT(partial.completed, g.size()) << "seed " << seed;
      if (partial.value) {
        ASSERT_TRUE(truth.has_value());
        EXPECT_LE(*partial.value, *truth) << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace lacon
