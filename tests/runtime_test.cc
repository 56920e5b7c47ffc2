// Tests for the parallel analysis runtime (src/runtime/) and the
// serial-vs-parallel equivalence guarantee of the ported hot paths: for
// every model kind, reachable_by_depth, similarity_connected, s_diameter
// and the valence tags must be identical with 1 worker and with >= 4
// workers (states compared by canonical content — interned ids are
// deliberately not part of the determinism contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/reports.hpp"
#include "core/sym.hpp"
#include "engine/explore.hpp"
#include "engine/valence.hpp"
#include "relation/similarity.hpp"
#include "runtime/fault.hpp"
#include "runtime/parallel.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"

namespace lacon {
namespace {

using runtime::WorkerCountOverride;

TEST(ParseWorkerEnv, AcceptsPositiveIntegers) {
  EXPECT_EQ(runtime::parse_worker_env("1", 8), 1u);
  EXPECT_EQ(runtime::parse_worker_env("16", 8), 16u);
}

TEST(ParseWorkerEnv, FallsBackOnGarbage) {
  EXPECT_EQ(runtime::parse_worker_env(nullptr, 8), 8u);
  EXPECT_EQ(runtime::parse_worker_env("", 8), 8u);
  EXPECT_EQ(runtime::parse_worker_env("zero", 8), 8u);
  EXPECT_EQ(runtime::parse_worker_env("4x", 8), 8u);
  EXPECT_EQ(runtime::parse_worker_env("0", 8), 8u);
  EXPECT_EQ(runtime::parse_worker_env("-3", 8), 8u);
}

TEST(ParseWorkerEnv, ClampsToSaneMaximum) {
  EXPECT_EQ(runtime::parse_worker_env("100000", 8), 256u);
}

TEST(ParseWorkerEnv, FallsBackOnOverflow) {
  // 2^64: strtoul saturates with ERANGE; must fall back, not clamp.
  EXPECT_EQ(runtime::parse_worker_env("18446744073709551616", 8), 8u);
  EXPECT_EQ(runtime::parse_worker_env("999999999999999999999999", 8), 8u);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  runtime::ThreadPool pool(4);
  std::atomic<int> sum{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i + 1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sum.load() != kTasks * (kTasks + 1) / 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "pool dropped tasks; sum=" << sum.load();
    std::this_thread::yield();
  }
}

TEST(ThreadPool, SerialPoolRunsInline) {
  runtime::ThreadPool pool(1);
  bool ran = false;
  pool.submit([&ran] { ran = true; });  // no worker threads: runs inline
  EXPECT_TRUE(ran);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  WorkerCountOverride workers(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  runtime::parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, HandlesEmptyAndTinyRanges) {
  WorkerCountOverride workers(4);
  runtime::parallel_for(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  {
    WorkerCountOverride serial(1);
    runtime::parallel_for(1, [&](std::size_t) { ++calls; });
  }
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  WorkerCountOverride workers(4);
  EXPECT_THROW(
      runtime::parallel_for(1000,
                            [](std::size_t i) {
                              if (i == 513) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
}

TEST(ParallelFor, SerialPropagatesExactlyTheFirstException) {
  // With one worker the chunks run inline in index order, so the exception
  // that escapes is exactly the lowest-index one.
  WorkerCountOverride workers(1);
  try {
    runtime::parallel_for(1000, [](std::size_t i) {
      if (i == 200) throw std::runtime_error("early");
      if (i == 700) throw std::runtime_error("late");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ("early", e.what());
  }
}

TEST(ParallelFor, MultiWorkerPropagatesOneOfTheThrown) {
  // Across workers "first" races, but the escaping exception must be one of
  // the ones actually thrown — never terminate(), never a different type.
  WorkerCountOverride workers(4);
  try {
    runtime::parallel_for(1000, [](std::size_t i) {
      if (i % 250 == 249) throw std::runtime_error("boom@" + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(0, std::string(e.what()).rfind("boom@", 0));
  }
}

TEST(ParallelFor, PoolStaysUsableAfterThrow) {
  for (unsigned workers : {1u, 4u}) {
    WorkerCountOverride scoped(workers);
    EXPECT_THROW(runtime::parallel_for(
                     500, [](std::size_t i) {
                       if (i == 100) throw std::runtime_error("boom");
                     }),
                 std::runtime_error)
        << "workers=" << workers;
    std::atomic<std::size_t> count{0};
    runtime::parallel_for(500, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(500u, count.load()) << "workers=" << workers;
  }
}

TEST(ParallelReduce, PropagatesExceptionsAndPoolStaysUsable) {
  for (unsigned workers : {1u, 4u}) {
    WorkerCountOverride scoped(workers);
    EXPECT_THROW(runtime::parallel_reduce<int>(
                     300, 0,
                     [](std::size_t i) -> int {
                       if (i == 37) throw std::runtime_error("boom");
                       return 1;
                     },
                     [](int a, int b) { return a + b; }),
                 std::runtime_error)
        << "workers=" << workers;
    const int sum = runtime::parallel_reduce<int>(
        300, 0, [](std::size_t) { return 1; },
        [](int a, int b) { return a + b; });
    EXPECT_EQ(300, sum) << "workers=" << workers;
  }
}

TEST(FaultSoak, InjectedTaskFaultPropagatesAndPoolRecovers) {
  fault::FaultConfig config{20260805, 1.0};
  if (const auto env = fault::config_from_env()) {
    config.seed = env->seed;  // rate stays 1.0: the throw must happen
  }
  for (unsigned workers : {1u, 4u}) {
    WorkerCountOverride scoped(workers);
    {
      fault::FaultScope scope(
          config.seed, 1.0,
          1u << static_cast<unsigned>(fault::Site::kTaskBody));
      EXPECT_THROW(runtime::parallel_for(400, [](std::size_t) {}),
                   fault::InjectedFault)
          << "workers=" << workers;
    }
    std::atomic<std::size_t> count{0};
    runtime::parallel_for(400, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(400u, count.load()) << "workers=" << workers;
  }
}

TEST(ParallelMapChunks, MergesInChunkOrder) {
  WorkerCountOverride workers(4);
  constexpr std::size_t kN = 5000;
  const auto chunks = runtime::parallel_map_chunks<std::vector<std::size_t>>(
      kN, [](std::size_t begin, std::size_t end) {
        std::vector<std::size_t> out(end - begin);
        std::iota(out.begin(), out.end(), begin);
        return out;
      });
  std::vector<std::size_t> merged;
  for (const auto& c : chunks) merged.insert(merged.end(), c.begin(), c.end());
  ASSERT_EQ(merged.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(merged[i], i);
}

TEST(ParallelReduce, NonCommutativeReductionIsDeterministic) {
  // String concatenation is associative but not commutative: the reduction
  // must produce the left-to-right result for every worker count.
  const auto concat = [](std::size_t n) {
    return runtime::parallel_reduce<std::string>(
        n, std::string(),
        [](std::size_t i) { return std::to_string(i % 10); },
        [](std::string a, std::string b) { return a + b; });
  };
  std::string serial, parallel;
  {
    WorkerCountOverride workers(1);
    serial = concat(300);
  }
  {
    WorkerCountOverride workers(4);
    parallel = concat(300);
  }
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.size(), 300u);
}

TEST(Stats, CountersAndTimersAccumulate) {
  auto& stats = runtime::Stats::global();
  auto& counter = stats.counter("test.counter");
  counter.reset();
  counter.add(3);
  counter.increment();
  EXPECT_EQ(counter.value(), 4u);

  auto& timer = stats.timer("test.timer");
  timer.reset();
  {
    runtime::ScopedTimer scope(timer);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(timer.count(), 1u);
  EXPECT_GT(timer.nanos(), 1000000u);  // at least 1ms elapsed

  bool saw_counter = false, saw_timer = false;
  for (const auto& s : stats.snapshot()) {
    if (s.name == "test.counter" && !s.is_timer && s.value == 4)
      saw_counter = true;
    if (s.name == "test.timer" && s.is_timer && s.count == 1) saw_timer = true;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_timer);
}

TEST(Stats, SnapshotIsSortedByName) {
  auto& stats = runtime::Stats::global();
  stats.counter("zz.last");
  stats.counter("aa.first");
  const auto snap = stats.snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LE(snap[i - 1].name, snap[i].name);
  }
}

TEST(RuntimeReport, MentionsWorkersAndStats) {
  runtime::Stats::global().counter("report.probe").increment();
  const std::string report = runtime_report();
  EXPECT_NE(report.find("runtime.workers"), std::string::npos);
  EXPECT_NE(report.find("report.probe"), std::string::npos);
}

// --- Graph::from_relation: parallel sweep must equal the serial sweep ---

bool graphs_equal(const Graph& a, const Graph& b) {
  if (a.size() != b.size() || a.edge_count() != b.edge_count()) return false;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    // Order included: the CSR rows must match element for element.
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

TEST(FromRelation, ParallelSweepIsByteIdenticalToSerial) {
  const auto related = [](std::size_t a, std::size_t b) {
    return (a * 7 + b * 13) % 3 == 0;
  };
  Graph serial(0), parallel(0), parallel_again(0);
  {
    WorkerCountOverride workers(1);
    serial = Graph::from_relation(257, related);
  }
  {
    WorkerCountOverride workers(4);
    parallel = Graph::from_relation(257, related);
    parallel_again = Graph::from_relation(257, related);
  }
  EXPECT_TRUE(graphs_equal(serial, parallel));
  EXPECT_TRUE(graphs_equal(parallel, parallel_again));
  EXPECT_GT(serial.edge_count(), 0u);
}

TEST(FromRelation, TinySizes) {
  WorkerCountOverride workers(4);
  const auto always = [](std::size_t, std::size_t) { return true; };
  EXPECT_EQ(Graph::from_relation(0, always).size(), 0u);
  EXPECT_EQ(Graph::from_relation(1, always).edge_count(), 0u);
  EXPECT_EQ(Graph::from_relation(2, always).edge_count(), 1u);
}

// --- Serial-vs-parallel equivalence of the analysis hot paths ---

// Canonical, id-free rendering of a state: environment words, each
// process's view term and its decision. Two runs that intern in different
// orders still agree on these.
std::string state_fingerprint(LayeredModel& model, StateId x) {
  const StateRef s = model.state(x);
  // env_to_string, not s.env: the shared-memory/message-passing envs embed
  // interned ViewIds, whose numeric values race across worker counts.
  std::string out = "env[" + model.env_to_string(x);
  out += "] views[";
  for (ViewId v : s.locals) out += model.views().to_string(v) + ";";
  out += "] d[";
  for (Value d : s.decisions) out += std::to_string(d) + ",";
  return out + "]";
}

struct AnalysisResult {
  std::vector<std::vector<std::string>> levels;  // sorted fingerprints
  bool con0_sim_connected = false;
  std::string con0_s_diameter;
  std::vector<std::string> valence_tags;  // per initial state, in order

  bool operator==(const AnalysisResult&) const = default;
};

AnalysisResult run_analysis(ModelKind kind, int n, int depth, int horizon) {
  const int t = 1;
  auto rule = min_after_round(2);
  auto model = make_model(kind, n, t, *rule);

  AnalysisResult result;
  for (const auto& level : reachable_by_depth(*model, depth)) {
    std::vector<std::string> prints;
    prints.reserve(level.size());
    for (StateId x : level) prints.push_back(state_fingerprint(*model, x));
    std::sort(prints.begin(), prints.end());
    result.levels.push_back(std::move(prints));
  }

  const auto& con0 = model->initial_states();
  result.con0_sim_connected = similarity_connected(*model, con0);
  const auto diam = s_diameter(*model, con0);
  result.con0_s_diameter = diam ? std::to_string(*diam) : "inf";

  ValenceEngine engine(*model, horizon, default_exactness(kind));
  for (const ValenceInfo& v : engine.classify_all(con0)) {
    result.valence_tags.push_back(std::string("v0=") + (v.v0 ? "1" : "0") +
                                  " v1=" + (v.v1 ? "1" : "0") +
                                  " exact=" + (v.exact ? "1" : "0"));
  }
  return result;
}

class EquivalenceTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(EquivalenceTest, SerialAndParallelAnalysesAgree) {
  const ModelKind kind = GetParam();
  const int n = 3;
  const int depth = kind == ModelKind::kMsgPass ? 1 : 2;
  const int horizon = 3;

  AnalysisResult serial, parallel;
  {
    WorkerCountOverride workers(1);
    serial = run_analysis(kind, n, depth, horizon);
  }
  {
    WorkerCountOverride workers(4);
    parallel = run_analysis(kind, n, depth, horizon);
  }
  EXPECT_EQ(serial.levels, parallel.levels);
  EXPECT_EQ(serial.con0_sim_connected, parallel.con0_sim_connected);
  EXPECT_EQ(serial.con0_s_diameter, parallel.con0_s_diameter);
  EXPECT_EQ(serial.valence_tags, parallel.valence_tags);
  EXPECT_GE(serial.levels.size(), 1u);
  // {0,1}^n inputs: 2^n initial states, folding to the n+1 Hamming-weight
  // orbits when the quotient is on (msgpass is the kFull model here; the
  // serial/parallel equalities above are the contract under every mode).
  const bool quotiented = kind == ModelKind::kMsgPass && sym::enabled();
  EXPECT_EQ(serial.valence_tags.size(),
            quotiented ? static_cast<std::size_t>(n) + 1
                       : std::size_t{1} << n);
}

INSTANTIATE_TEST_SUITE_P(AllModels, EquivalenceTest,
                         ::testing::Values(ModelKind::kMobile,
                                           ModelKind::kSharedMem,
                                           ModelKind::kMsgPass,
                                           ModelKind::kSync),
                         [](const auto& info) {
                           return model_kind_name(info.param).substr(0, 1) +
                                  std::to_string(static_cast<int>(
                                      info.param));
                         });

TEST(ClassifyAll, MatchesSerialValenceCalls) {
  auto rule = min_after_round(2);
  auto model = make_model(ModelKind::kMobile, 3, 1, *rule);
  const auto& con0 = model->initial_states();

  ValenceEngine serial_engine(*model, 3, Exactness::kQuiescence);
  std::vector<ValenceInfo> expected;
  for (StateId x : con0) expected.push_back(serial_engine.valence(x));

  WorkerCountOverride workers(4);
  auto rule2 = min_after_round(2);
  auto model2 = make_model(ModelKind::kMobile, 3, 1, *rule2);
  ValenceEngine parallel_engine(*model2, 3, Exactness::kQuiescence);
  const auto got = parallel_engine.classify_all(model2->initial_states());

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].v0, expected[i].v0) << i;
    EXPECT_EQ(got[i].v1, expected[i].v1) << i;
    EXPECT_EQ(got[i].exact, expected[i].exact) << i;
  }
}

}  // namespace
}  // namespace lacon
