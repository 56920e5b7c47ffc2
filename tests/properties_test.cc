// Cross-model property sweeps: facts the paper's arguments rely on, checked
// uniformly over every model and several sizes.
#include <gtest/gtest.h>

#include "analysis/reports.hpp"
#include "models/iis/iis_model.hpp"
#include "models/mobile/mobile_model.hpp"
#include "models/msgpass/msgpass_model.hpp"
#include "models/msgpass/msgpass_sync_model.hpp"
#include "models/snapshot/snapshot_model.hpp"
#include "relation/similarity.hpp"
#include "util/permutations.hpp"

namespace lacon {
namespace {

// Lemma 3.6's chain gives s-diameter(Con_0) = n exactly: the hypercube of
// input assignments under the Hamming-distance-1 relation. The cube has no
// pendant vertices, so the whole graph is the 2-core the diameter search
// bounds over.
TEST(Properties, Con0SDiameterEqualsN) {
  auto rule = never_decide();
  for (int n : {2, 3, 4, 5, 6, 7, 8}) {
    for (ModelKind kind : {ModelKind::kMobile, ModelKind::kSharedMem,
                           ModelKind::kMsgPass, ModelKind::kSync}) {
      if (kind == ModelKind::kSync && n < 3) continue;
      if (kind == ModelKind::kMsgPass && n > 3) continue;  // n! blowup
      auto model = make_model(kind, n, 1, *rule);
      const auto diam = s_diameter(*model, model->initial_states());
      ASSERT_TRUE(diam) << model_kind_name(kind) << " n=" << n;
      EXPECT_EQ(*diam, static_cast<std::size_t>(n))
          << model_kind_name(kind) << " n=" << n;
    }
  }
}

TEST(Properties, Con0SDiameterEqualsNExtendedModels) {
  auto rule = never_decide();
  for (int n : {2, 3}) {
    MsgPassSyncModel a(n, *rule);
    SnapshotModel b(n, *rule);
    IisModel c(n, *rule);
    for (LayeredModel* m : {static_cast<LayeredModel*>(&a),
                            static_cast<LayeredModel*>(&b),
                            static_cast<LayeredModel*>(&c)}) {
      const auto diam = s_diameter(*m, m->initial_states());
      ASSERT_TRUE(diam) << m->name() << " n=" << n;
      EXPECT_EQ(*diam, static_cast<std::size_t>(n)) << m->name();
    }
  }
}

// The permutation-layering diamond at n = 4 (the n = 3 version is covered
// in msgpass_model_test): larger instance, all rotations.
TEST(Properties, MsgPassDiamondAtN4) {
  auto rule = never_decide();
  MsgPassModel model(4, *rule);
  const StateId x0 = model.initial_states().front();
  const Permutation base = {2, 0, 3, 1};
  Schedule full;
  for (ProcessId p : base) full.push_back(SchedGroup{p, -1});
  Schedule dropped = full;
  dropped.pop_back();
  Schedule rotated;
  rotated.push_back(full.back());
  for (std::size_t i = 0; i + 1 < full.size(); ++i) rotated.push_back(full[i]);
  const StateId lhs =
      model.apply_schedule(model.apply_schedule(x0, full), dropped);
  const StateId rhs =
      model.apply_schedule(model.apply_schedule(x0, dropped), rotated);
  EXPECT_EQ(lhs, rhs);
}

// Similarity is preserved by renaming-free determinism: applying the same
// failure-free action to similar states keeps their relation when the
// differing process is silenced.
TEST(Properties, SilencingPreservesSimilarityInMobile) {
  auto rule = never_decide();
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  auto* mobile = static_cast<MobileModel*>(model.get());
  const auto& con0 = model->initial_states();
  for (std::size_t a = 0; a < con0.size(); ++a) {
    for (std::size_t b = a + 1; b < con0.size(); ++b) {
      const auto witness = similarity_witness(*model, con0[a], con0[b]);
      if (!witness) continue;
      // Silence the witness in both: the successors stay similar.
      const StateId xa = mobile->apply(con0[a], *witness, 3);
      const StateId xb = mobile->apply(con0[b], *witness, 3);
      EXPECT_TRUE(similar(*model, xa, xb));
      EXPECT_TRUE(model->agree_modulo(xa, xb, *witness));
    }
  }
}

// Layer sizes grow polynomially for the synchronic layerings and
// factorially for the permutation layering — the paper's "little
// asynchrony" claim in numbers.
TEST(Properties, LayerGrowthRates) {
  auto rule = never_decide();
  std::vector<std::size_t> synchronic;
  std::vector<std::size_t> permutation;
  for (int n : {2, 3, 4}) {
    auto sm = make_model(ModelKind::kSharedMem, n, 1, *rule);
    synchronic.push_back(sm->layer(sm->initial_states().front()).size());
    auto mp = make_model(ModelKind::kMsgPass, n, 1, *rule);
    permutation.push_back(mp->layer(mp->initial_states().front()).size());
  }
  // Synchronic: quadratic-ish; permutation: super-exponential ratio growth.
  EXPECT_LT(synchronic[2], 3 * synchronic[1]);
  EXPECT_GT(permutation[2], 4 * permutation[1]);
}

}  // namespace
}  // namespace lacon
