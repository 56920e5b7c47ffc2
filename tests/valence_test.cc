// Tests for the valence engine (Section 3): exactness, bivalence,
// shared-valence graphs and the constructive Lemma 3.4.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/decision_rule.hpp"
#include "core/sym.hpp"
#include "engine/valence.hpp"
#include "models/mobile/mobile_model.hpp"
#include "models/msgpass/msgpass_model.hpp"
#include "models/sharedmem/sharedmem_model.hpp"
#include "models/synchronous/sync_model.hpp"

namespace lacon {
namespace {

StateId initial_with_inputs(LayeredModel& model,
                            const std::vector<Value>& inputs) {
  for (StateId s : model.initial_states()) {
    bool match = true;
    for (ProcessId i = 0; i < model.n(); ++i) {
      if (model.views().node(model.state(s).locals[static_cast<std::size_t>(i)])
              .input != inputs[static_cast<std::size_t>(i)]) {
        match = false;
      }
    }
    if (match) return s;
  }
  ADD_FAILURE() << "input assignment not found";
  return 0;
}

TEST(Valence, UnanimousInitialStatesAreUnivalent) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 3);
  const StateId all0 = initial_with_inputs(model, {0, 0, 0});
  const StateId all1 = initial_with_inputs(model, {1, 1, 1});
  const ValenceInfo v0 = engine.valence(all0);
  EXPECT_TRUE(v0.exact);
  EXPECT_TRUE(v0.univalent());
  EXPECT_EQ(v0.value(), 0);
  const ValenceInfo v1 = engine.valence(all1);
  EXPECT_TRUE(v1.univalent());
  EXPECT_EQ(v1.value(), 1);
}

TEST(Valence, MixedInitialStateIsBivalentInMobileModel) {
  // With one mobile failure the environment can hide the 0-input (silence
  // its holder) or reveal it, so a mixed state has both futures.
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 3);
  const StateId mixed = initial_with_inputs(model, {0, 1, 1});
  const ValenceInfo v = engine.valence(mixed);
  EXPECT_TRUE(v.bivalent());
}

TEST(Valence, QuiescentStateHasExactValence) {
  auto rule = min_after_round(1);
  MobileModel model(3, *rule);
  const StateId x0 = initial_with_inputs(model, {1, 1, 1});
  const StateId y = model.layer(x0).front();
  EXPECT_TRUE(quiescent(model, y));
  ValenceEngine engine(model, 0);  // no lookahead needed when quiescent
  const ValenceInfo v = engine.valence(y);
  EXPECT_TRUE(v.exact);
  EXPECT_TRUE(v.univalent());
}

TEST(Valence, HorizonZeroOnUndecidedStateIsInexact) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 0);
  const ValenceInfo v = engine.valence(model.initial_states().front());
  EXPECT_FALSE(v.exact);
  EXPECT_FALSE(v.v0);
  EXPECT_FALSE(v.v1);
}

TEST(Valence, MonotoneInHorizon) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  const StateId mixed = initial_with_inputs(model, {0, 1, 1});
  ValenceEngine shallow(model, 1);
  ValenceEngine deep(model, 3);
  const ValenceInfo a = shallow.valence(mixed);
  const ValenceInfo b = deep.valence(mixed);
  EXPECT_LE(a.v0, b.v0);
  EXPECT_LE(a.v1, b.v1);
}

TEST(Valence, ConvergenceModeMarksStableSetsExact) {
  auto rule = min_after_round(2);
  SharedMemModel model(3, *rule);
  ValenceEngine engine(model, 3, Exactness::kConvergence);
  for (StateId x : model.initial_states()) {
    const ValenceInfo v = engine.valence(x);
    EXPECT_TRUE(v.exact) << "state " << x;
    EXPECT_TRUE(v.v0 || v.v1);
  }
}

TEST(Valence, SharedValenceAndGraph) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 3);
  const StateId all0 = initial_with_inputs(model, {0, 0, 0});
  const StateId all1 = initial_with_inputs(model, {1, 1, 1});
  const StateId mixed = initial_with_inputs(model, {0, 1, 1});
  EXPECT_FALSE(engine.shared_valence(all0, all1));
  EXPECT_TRUE(engine.shared_valence(all0, mixed));  // mixed is bivalent
  EXPECT_TRUE(engine.shared_valence(all1, mixed));
  EXPECT_TRUE(engine.valence_connected({all0, mixed, all1}));
  EXPECT_FALSE(engine.valence_connected({all0, all1}));
}

TEST(Valence, FindBivalentReturnsFirstBivalent) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 3);
  const StateId all0 = initial_with_inputs(model, {0, 0, 0});
  const StateId mixed = initial_with_inputs(model, {1, 0, 1});
  const auto found = engine.find_bivalent({all0, mixed});
  ASSERT_TRUE(found);
  EXPECT_EQ(*found, mixed);
  EXPECT_FALSE(engine.find_bivalent({all0}));
}

TEST(Valence, SyncModelStateWithTFailuresIsUnivalent) {
  // Proof of Lemma 6.2: a state with t failed processes has a unique
  // S^t extension, hence is univalent.
  auto rule = min_after_round(3);
  SyncModel model(3, 1, *rule);
  ValenceEngine engine(model, 4);
  const StateId mixed = initial_with_inputs(model, {0, 1, 1});
  const StateId y = model.apply(mixed, 0, 3);  // crash the 0-holder
  ASSERT_EQ(model.failed_at(y).size(), 1);
  const ValenceInfo v = engine.valence(y);
  EXPECT_TRUE(v.exact);
  EXPECT_TRUE(v.univalent());
}

TEST(Valence, MsgPassMixedInitialIsBivalent) {
  // initial_with_inputs looks up the raw {0,1,1} assignment; the orbit
  // quotient would intern a relabeled representative instead.
  sym::ScopedSymmetry off(false);
  auto rule = min_after_round(2);
  MsgPassModel model(3, *rule);
  ValenceEngine engine(model, 3, Exactness::kConvergence);
  const StateId mixed = initial_with_inputs(model, {0, 1, 1});
  EXPECT_TRUE(engine.valence(mixed).bivalent());
}

TEST(Valence, DecidedValencesReadsNonFailedOnly) {
  auto rule = min_after_round(1);
  SyncModel model(3, 1, *rule);
  const StateId x0 = initial_with_inputs(model, {0, 1, 1});
  const StateId y = model.apply(x0, 0, 3);  // 0 crashes; survivors decide 1
  const ValenceInfo v = decided_valences(model, y);
  EXPECT_FALSE(v.v0);  // 0's own decision does not witness, it is failed
  EXPECT_TRUE(v.v1);
}

// The packed memo keeps memoize()'s strongest-wins rule, observed through
// import_memo/export_memo and memo_epoch.
TEST(ValenceMemo, StrongestEntryWinsAndOnlyChangesBumpTheEpoch) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 3);
  const std::vector<StateId>& init = model.initial_states();
  ASSERT_GE(init.size(), 2u);
  const StateId x = init[0];
  const StateId y = init[1];
  const auto entry_of = [&](StateId id) {
    for (const auto& e : engine.export_memo()) {
      if (e.x == id) return e;
    }
    ADD_FAILURE() << "no memo entry for " << id;
    return ValenceEngine::MemoEntry{};
  };
  using E = ValenceEngine::MemoEntry;

  // Bivalent is sticky: a deeper univalent entry does not replace it.
  std::uint64_t epoch = engine.memo_epoch();
  engine.import_memo({E{x, 1, true, true, true, false}});
  EXPECT_EQ(engine.memo_epoch(), ++epoch);
  engine.import_memo({E{x, 3, true, false, true, false}});
  EXPECT_EQ(engine.memo_epoch(), epoch);
  EXPECT_TRUE(entry_of(x).v0 && entry_of(x).v1);
  EXPECT_EQ(entry_of(x).lookahead, 1);

  // A deeper lookahead wins; a shallower one does not.
  engine.import_memo({E{y, 1, true, false, false, false}});
  EXPECT_EQ(engine.memo_epoch(), ++epoch);
  engine.import_memo({E{y, 2, false, true, true, false}});
  EXPECT_EQ(engine.memo_epoch(), ++epoch);
  engine.import_memo({E{y, 1, true, false, true, false}});
  EXPECT_EQ(engine.memo_epoch(), epoch);
  EXPECT_EQ(entry_of(y).lookahead, 2);
  EXPECT_FALSE(entry_of(y).v0);
  EXPECT_TRUE(entry_of(y).v1);
  EXPECT_TRUE(entry_of(y).exact);

  // An equal entry changes nothing, so the epoch stays.
  engine.import_memo({E{y, 2, false, true, true, false}});
  EXPECT_EQ(engine.memo_epoch(), epoch);
  // Same lookahead, new flags: a change.
  engine.import_memo({E{y, 2, false, true, false, false}});
  EXPECT_EQ(engine.memo_epoch(), ++epoch);
  EXPECT_FALSE(entry_of(y).exact);

  // A lookahead no engine memoizes is skipped.
  engine.import_memo({E{y, -1, true, true, true, false}});
  EXPECT_EQ(engine.memo_epoch(), epoch);
  EXPECT_EQ(entry_of(y).lookahead, 2);
}

// export_memo walks the ids in order, shallow memo first, so its output is
// (deep, x)-sorted with no sort step.
TEST(ValenceMemo, ExportIsSortedByDeepThenId) {
  auto rule = min_after_round(2);
  MobileModel model(3, *rule);
  ValenceEngine engine(model, 2, Exactness::kConvergence);
  std::vector<StateId> X(model.initial_states().rbegin(),
                         model.initial_states().rend());
  engine.classify_all(X);
  const auto memo = engine.export_memo();
  ASSERT_FALSE(memo.empty());
  EXPECT_TRUE(std::is_sorted(
      memo.begin(), memo.end(), [](const auto& a, const auto& b) {
        return std::tie(a.deep, a.x) < std::tie(b.deep, b.x);
      }));
  EXPECT_TRUE(std::adjacent_find(memo.begin(), memo.end(),
                                 [](const auto& a, const auto& b) {
                                   return a.deep == b.deep && a.x == b.x;
                                 }) == memo.end());
  EXPECT_FALSE(memo.front().deep);
  EXPECT_TRUE(memo.back().deep);
  // Round trip: a fresh engine importing the export exports it verbatim.
  ValenceEngine copy(model, 2, Exactness::kConvergence);
  copy.import_memo(memo);
  const auto again = copy.export_memo();
  ASSERT_EQ(again.size(), memo.size());
  for (std::size_t i = 0; i < memo.size(); ++i) {
    EXPECT_EQ(again[i].x, memo[i].x);
    EXPECT_EQ(again[i].lookahead, memo[i].lookahead);
    EXPECT_EQ(again[i].deep, memo[i].deep);
    EXPECT_EQ(again[i].v0, memo[i].v0);
    EXPECT_EQ(again[i].v1, memo[i].v1);
    EXPECT_EQ(again[i].exact, memo[i].exact);
  }
}

}  // namespace
}  // namespace lacon
