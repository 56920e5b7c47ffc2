// Unit tests for src/core: view arena, global states, decision rules, and
// the LayeredModel base machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/decision_rule.hpp"
#include "core/model.hpp"
#include "core/state.hpp"
#include "core/view.hpp"

namespace lacon {
namespace {

TEST(ViewArena, InitialViewsInterned) {
  ViewArena arena(3);
  const ViewId a = arena.initial(0, 1);
  const ViewId b = arena.initial(0, 1);
  const ViewId c = arena.initial(0, 0);
  const ViewId d = arena.initial(1, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(arena.node(a).round, 0);
  EXPECT_EQ(arena.node(a).input, 1);
}

TEST(ViewArena, ExtendAdvancesRoundAndInterns) {
  ViewArena arena(3);
  const ViewId a = arena.initial(0, 1);
  const ViewId b = arena.initial(1, 0);
  const ViewId x = arena.extend(a, {{1, b}, {2, kNoView}});
  const ViewId y = arena.extend(a, {{1, b}, {2, kNoView}});
  const ViewId z = arena.extend(a, {{1, kNoView}, {2, kNoView}});
  EXPECT_EQ(x, y);
  EXPECT_NE(x, z);
  EXPECT_EQ(arena.node(x).round, 1);
  EXPECT_EQ(arena.node(x).owner, 0);
  EXPECT_EQ(arena.node(x).input, 1);  // input propagates down the chain
}

TEST(ViewArena, KnownInputsRoot) {
  ViewArena arena(3);
  const ViewId a = arena.initial(1, 7);
  const auto& known = arena.known_inputs(a);
  EXPECT_EQ(known[0], kUnknownInput);
  EXPECT_EQ(known[1], 7);
  EXPECT_EQ(known[2], kUnknownInput);
}

TEST(ViewArena, KnownInputsPropagateThroughObservations) {
  ViewArena arena(3);
  const ViewId a = arena.initial(0, 0);
  const ViewId b = arena.initial(1, 1);
  const ViewId c = arena.initial(2, 1);
  // Process 0 observes 1 but misses 2.
  const ViewId x = arena.extend(a, {{1, b}, {2, kNoView}});
  const auto& known = arena.known_inputs(x);
  EXPECT_EQ(known[0], 0);
  EXPECT_EQ(known[1], 1);
  EXPECT_EQ(known[2], kUnknownInput);
  // A second round observing a view that knows 2's input fills the gap.
  const ViewId y1 = arena.extend(b, {{0, a}, {2, c}});
  const ViewId x2 = arena.extend(x, {{1, y1}, {2, kNoView}});
  EXPECT_EQ(arena.known_inputs(x2)[2], 1);
}

TEST(ViewArena, KnownInputsTransitiveThroughPrevChain) {
  ViewArena arena(2);
  const ViewId a = arena.initial(0, 0);
  const ViewId b = arena.initial(1, 1);
  const ViewId x1 = arena.extend(a, {{1, b}});
  const ViewId x2 = arena.extend(x1, {{1, kNoView}});
  // Input of 1 was learned in round 1 and persists.
  EXPECT_EQ(arena.known_inputs(x2)[1], 1);
}

TEST(ViewArena, ToStringMentionsOwnerAndRound) {
  ViewArena arena(2);
  const ViewId a = arena.initial(0, 1);
  EXPECT_EQ(arena.to_string(a), "p0@0(in=1)");
  const ViewId x = arena.extend(a, {{1, kNoView}});
  EXPECT_NE(arena.to_string(x).find("p0@1"), std::string::npos);
}

TEST(GlobalState, AgreeModulo) {
  GlobalState x{{1, 2}, {10, 11, 12}, {kUndecided, 0, kUndecided}};
  GlobalState y{{1, 2}, {10, 99, 12}, {kUndecided, 1, kUndecided}};
  EXPECT_TRUE(agree_modulo(x, y, 1));   // differ only in process 1
  EXPECT_FALSE(agree_modulo(x, y, 0));  // process 1 still differs
  GlobalState z = x;
  z.env = {1, 3};
  EXPECT_FALSE(agree_modulo(x, z, 1));  // environments must be equal
  EXPECT_TRUE(agree_modulo(x, x, 2));   // reflexive for any j
}

TEST(GlobalState, AgreeModuloSeesDecisionDifference) {
  GlobalState x{{}, {10, 11}, {0, kUndecided}};
  GlobalState y{{}, {10, 11}, {1, kUndecided}};
  EXPECT_TRUE(agree_modulo(x, y, 0));
  EXPECT_FALSE(agree_modulo(x, y, 1));
}

TEST(StateArena, InternsStructurally) {
  StateArena arena;
  const StateId a = arena.intern({{1}, {2, 3}, {kUndecided, kUndecided}});
  const StateId b = arena.intern({{1}, {2, 3}, {kUndecided, kUndecided}});
  const StateId c = arena.intern({{1}, {2, 4}, {kUndecided, kUndecided}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_EQ(arena.state(a).locals[1], 3);
}

// agree_modulo and operator== on pooled states against the loop definition
// over the raw vector-backed payloads, across odd and even n.
TEST(StateArena, AgreeModuloMatchesReferenceDefinition) {
  std::mt19937_64 rng(0x7264731206u);
  for (int n = 2; n <= 9; ++n) {
    StateArena arena;
    std::vector<StateId> ids;
    std::vector<GlobalState> raw;
    for (int s = 0; s < 24; ++s) {
      GlobalState g;
      const std::size_t env_len = rng() % 4;
      g.env.resize(env_len);
      for (auto& w : g.env) {
        w = static_cast<std::int64_t>(rng() % 3);  // force env collisions
      }
      const auto nn = static_cast<std::size_t>(n);
      g.locals.resize(nn);
      g.decisions.resize(nn);
      for (auto& v : g.locals) v = static_cast<ViewId>(rng() % 3) - 1;
      for (auto& v : g.decisions) v = static_cast<Value>(rng() % 2) - 1;
      raw.push_back(g);
      ids.push_back(arena.intern(std::move(g)));
    }
    for (int round = 0; round < 200; ++round) {
      const std::size_t a = rng() % ids.size();
      const std::size_t b = rng() % ids.size();
      const auto j = static_cast<ProcessId>(rng() % n);
      bool want = raw[a].env == raw[b].env;
      for (ProcessId i = 0; i < n && want; ++i) {
        if (i == j) continue;
        const auto idx = static_cast<std::size_t>(i);
        want = raw[a].locals[idx] == raw[b].locals[idx] &&
               raw[a].decisions[idx] == raw[b].decisions[idx];
      }
      EXPECT_EQ(agree_modulo(arena.state(ids[a]), arena.state(ids[b]), j),
                want)
          << "n=" << n;
      // Interning is content-addressed: ref equality iff one id.
      EXPECT_EQ(arena.state(ids[a]) == arena.state(ids[b]), ids[a] == ids[b]);
    }
  }
}

// A two-process model whose environment is one counter word c; S(x) holds
// the states with c + 1 and c + 2, so layers are cheap and ids predictable.
class CounterModel : public LayeredModel {
 public:
  explicit CounterModel(const DecisionRule& rule)
      : LayeredModel(2, rule, {{0, 0}}) {}
  std::string name() const override { return "counter"; }

 protected:
  std::vector<StateId> compute_layer(StateId x) override {
    const StateRef s = state(x);
    std::vector<StateId> out;
    for (const std::int64_t step : {2, 1}) {
      out.push_back(intern(GlobalState{
          {s.env[0] + step},
          {s.locals.begin(), s.locals.end()},
          {s.decisions.begin(), s.decisions.end()}}));
    }
    return out;
  }
  std::vector<std::int64_t> initial_env() const override { return {0}; }
};

TEST(LayerCache, CachedLayerIsNullUntilPublished) {
  const auto rule = never_decide();
  CounterModel model(*rule);
  const StateId x = model.initial_states().front();
  EXPECT_EQ(model.cached_layer(x), nullptr);
  const std::vector<StateId>& succ = model.layer(x);
  EXPECT_EQ(succ.size(), 2u);
  EXPECT_TRUE(std::is_sorted(succ.begin(), succ.end()));
  EXPECT_EQ(model.cached_layer(x), &succ);
}

// Four workers race layer(x) on one x: whoever loses the publication CAS
// discards its copy, so every caller holds the same reference and the
// cache epoch counts exactly one insert.
TEST(LayerCache, RacingComputationsShareOnePublication) {
  const auto rule = never_decide();
  for (int round = 0; round < 20; ++round) {
    CounterModel model(*rule);
    const StateId x = model.initial_states().front();
    const std::uint64_t epoch = model.cache_epoch();
    constexpr int kWorkers = 4;
    std::vector<const std::vector<StateId>*> got(kWorkers, nullptr);
    std::atomic<int> ready{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        ready.fetch_add(1);
        while (ready.load() < kWorkers) {
        }
        got[static_cast<std::size_t>(w)] = &model.layer(x);
      });
    }
    for (auto& t : workers) t.join();
    for (int w = 1; w < kWorkers; ++w) {
      EXPECT_EQ(got[static_cast<std::size_t>(w)], got[0]);
    }
    EXPECT_EQ(model.cache_epoch(), epoch + 1);
    EXPECT_EQ(model.cached_layer(x), got[0]);
  }
}

// export_layer_cache walks the ids in order: layers published in
// descending id order still come out ascending, with their contents.
TEST(LayerCache, ExportIsIdSortedWithoutASort) {
  const auto rule = never_decide();
  CounterModel model(*rule);
  std::vector<StateId> frontier = {model.initial_states().front()};
  for (int d = 0; d < 4; ++d) {
    std::vector<StateId> next;
    for (StateId x : frontier) {
      for (StateId y : model.layer(x)) next.push_back(y);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
  }
  // Newest first (the older ones are already cached); the layers of the
  // newest states intern states past `layered`, which stay uncached.
  const auto layered = static_cast<StateId>(model.num_states());
  for (StateId x = layered; x-- > 0;) model.layer(x);
  const auto exported = model.export_layer_cache();
  ASSERT_EQ(exported.size(), layered);
  for (std::size_t i = 0; i < exported.size(); ++i) {
    EXPECT_EQ(exported[i].first, static_cast<StateId>(i));
    EXPECT_EQ(exported[i].second, model.layer(exported[i].first));
  }
  // Importing the export into a fresh model publishes the same layers and
  // counts one epoch bump per entry; a second import adds nothing.
  CounterModel copy(*rule);
  for (StateId x = 0; x < model.num_states(); ++x) {
    const StateRef s = model.state(x);
    copy.restore_state({{s.env.begin(), s.env.end()},
                        {s.locals.begin(), s.locals.end()},
                        {s.decisions.begin(), s.decisions.end()}});
  }
  const std::uint64_t epoch = copy.cache_epoch();
  copy.import_layer_cache(exported);
  EXPECT_EQ(copy.cache_epoch(), epoch + exported.size());
  copy.import_layer_cache(exported);
  EXPECT_EQ(copy.cache_epoch(), epoch + exported.size());
  EXPECT_EQ(copy.export_layer_cache(), exported);
}

TEST(AllBinaryInputs, EnumeratesCube) {
  const auto inputs = all_binary_inputs(3);
  EXPECT_EQ(inputs.size(), 8u);
  for (const auto& in : inputs) {
    EXPECT_EQ(in.size(), 3u);
    for (Value v : in) EXPECT_TRUE(v == 0 || v == 1);
  }
}

class RuleFixture : public ::testing::Test {
 protected:
  ViewArena arena_{3};
};

TEST_F(RuleFixture, NeverDecide) {
  const auto rule = never_decide();
  const ViewId v = arena_.initial(0, 1);
  EXPECT_FALSE(rule->decide(0, v, arena_));
  EXPECT_EQ(rule->name(), "never-decide");
}

TEST_F(RuleFixture, MinAfterRoundWaitsForRound) {
  const auto rule = min_after_round(1);
  const ViewId a = arena_.initial(0, 1);
  EXPECT_FALSE(rule->decide(0, a, arena_));  // round 0 < 1
  const ViewId b = arena_.initial(1, 0);
  const ViewId x = arena_.extend(a, {{1, b}, {2, kNoView}});
  const auto d = rule->decide(0, x, arena_);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, 0);  // min of {1, 0}
}

TEST_F(RuleFixture, OwnInputAfterRound) {
  const auto rule = own_input_after_round(1);
  const ViewId a = arena_.initial(2, 1);
  const ViewId x = arena_.extend(a, {{0, kNoView}, {1, kNoView}});
  const auto d = rule->decide(2, x, arena_);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, 1);
}

TEST_F(RuleFixture, UnanimityDecidesEarlyOnCompleteUnanimousView) {
  const auto rule = unanimity_then_min(5);
  const ViewId a = arena_.initial(0, 1);
  const ViewId b = arena_.initial(1, 1);
  const ViewId c = arena_.initial(2, 1);
  const ViewId x = arena_.extend(a, {{1, b}, {2, c}});
  const auto d = rule->decide(0, x, arena_);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, 1);
  // Mixed inputs: no early decision before the deadline round.
  const ViewId b0 = arena_.initial(1, 0);
  const ViewId y = arena_.extend(a, {{1, b0}, {2, c}});
  EXPECT_FALSE(rule->decide(0, y, arena_));
}

TEST_F(RuleFixture, MajorityAfterRound) {
  const auto rule = majority_after_round(1);
  const ViewId a = arena_.initial(0, 0);
  const ViewId b = arena_.initial(1, 1);
  const ViewId c = arena_.initial(2, 1);
  const ViewId x = arena_.extend(a, {{1, b}, {2, c}});
  const auto d = rule->decide(0, x, arena_);
  ASSERT_TRUE(d);
  EXPECT_EQ(*d, 1);  // two ones beat one zero
  // Ties go to 0.
  const ViewId y = arena_.extend(a, {{1, b}, {2, kNoView}});
  const auto dy = rule->decide(0, y, arena_);
  ASSERT_TRUE(dy);
  EXPECT_EQ(*dy, 0);
}

}  // namespace
}  // namespace lacon
