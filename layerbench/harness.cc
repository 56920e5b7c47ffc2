// layerbench harness: runs one benchmark workload against the lacon
// libraries through their public entry points and prints one JSON document
// of raw samples on stdout. run.py turns those samples into the benchmark's
// metrics; this program only measures and checks answers.
//
//   layerbench_harness <workload> --seed N --seconds S --trace 0|1
//
// Workloads:
//   analyze_diameter  closed loop, one caller: fresh mobile n=4 t=1 model,
//                     reachable_by_depth(2), seeded frontier shuffle,
//                     similarity_graph + Graph::diameter, classify_all(h=3)
//   analyze_valence   the same pipeline on sharedmem n=3 t=1
//   serve_durable     in-process service::Server on an AF_UNIX socket with
//                     LACON_WAL=on, 4 closed-loop client connections, a
//                     seeded request mix, then repeated restarts on the same
//                     store dir (recovery)
//
// serve_durable creates its socket and store directory under the current
// working directory; run.py starts the harness inside a per-run directory.
// Its repeated set-up and recovery phases run as child processes of the
// harness ("serve_phase setup|recovery"), as a restarted daemon would.
//
// With --trace 1 the harness records spans around each call into a layer
// (names are the per-layer metric names) plus per-op counter deltas read
// from runtime::Stats, and writes the spans as Chrome trace-event JSON to
// spans.json in the working directory. Nothing inside the libraries is
// instrumented for this benchmark.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/reports.hpp"
#include "core/decision_rule.hpp"
#include "engine/explore.hpp"
#include "engine/lemma_store.hpp"
#include "engine/valence.hpp"
#include "relation/graph.hpp"
#include "relation/similarity.hpp"
#include "runtime/stats.hpp"
#include "runtime/thread_pool.hpp"
#include "service/json.hpp"
#include "service/server.hpp"

namespace {

using lacon::service::Json;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

Json json_array(const std::vector<double>& values) {
  Json::Array a;
  a.reserve(values.size());
  for (double v : values) a.emplace_back(v);
  return Json(std::move(a));
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory, written out when the run ends.

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0: root
  std::int64_t op = 0;  // spans of one op share this id; < 0 outside the loop
  int tid = 0;
  double start_us = 0;
  double end_us = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  bool on() const noexcept { return on_; }

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  std::int64_t next_id() { return ++ids_; }

  void add(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  // Chrome trace-event JSON ("X" complete events); args carry the span and
  // parent ids so run.py can rebuild the tree and compute self time.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans_) {
      Json ev;
      ev.set("name", Json(s.name));
      ev.set("ph", Json("X"));
      ev.set("pid", Json(1));
      ev.set("tid", Json(s.tid));
      ev.set("ts", Json(s.start_us));
      ev.set("dur", Json(s.end_us - s.start_us));
      Json args;
      args.set("id", Json(s.id));
      args.set("parent", Json(s.parent));
      args.set("op", Json(s.op));
      ev.set("args", std::move(args));
      out << (first ? "" : ",\n") << ev.dump();
      first = false;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::atomic<std::int64_t> ids_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; inert when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tr, const char* name, std::int64_t op,
             std::int64_t parent, int tid = 0)
      : tr_(tr) {
    if (!tr_.on()) return;
    span_.name = name;
    span_.id = tr_.next_id();
    span_.parent = parent;
    span_.op = op;
    span_.tid = tid;
    span_.start_us = tr_.now_us();
  }
  ~ScopedSpan() {
    if (!tr_.on()) return;
    span_.end_us = tr_.now_us();
    tr_.add(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const noexcept { return span_.id; }

 private:
  Tracer& tr_;
  Span span_;
};

// ---------------------------------------------------------------------------
// runtime::Stats counters, read from outside the libraries as deltas.

std::uint64_t counter(const char* name) {
  return lacon::runtime::Stats::global().counter(name).value();
}
std::uint64_t timer_nanos(const char* name) {
  return lacon::runtime::Stats::global().timer(name).nanos();
}
std::uint64_t timer_count(const char* name) {
  return lacon::runtime::Stats::global().timer(name).count();
}

// The counters the per-layer metrics are derived from. Timers contribute
// their accumulated nanoseconds (name + ".ns") and call count (".calls").
constexpr const char* kCounters[] = {
    "relation.diameter_sources", "relation.index_candidates",
    "relation.index_confirmed",  "explore.states_discovered",
    "lemmas.hits",               "lemmas.misses",
    "arena.state_hits",          "arena.state_misses",
    "arena.view_hits",           "arena.view_misses",
    "arena.state_shard_waits",   "arena.view_shard_waits",
    "pool.steals",               "service.requests",
    "service.commit_waits",      "wal.bytes_appended",
    "store.bytes_read",          "valence.states_classified",
};
constexpr const char* kTimers[] = {
    "relation.diameter_time", "relation.index_time", "explore.expand_time",
    "valence.classify_time",  "wal.append_time",     "store.load_time",
    "wal.replay_time",
};

using Counts = std::map<std::string, double>;

Counts read_counts() {
  Counts c;
  for (const char* name : kCounters) {
    c[name] = static_cast<double>(counter(name));
  }
  for (const char* name : kTimers) {
    c[std::string(name) + ".ns"] = static_cast<double>(timer_nanos(name));
    c[std::string(name) + ".calls"] = static_cast<double>(timer_count(name));
  }
  return c;
}

Counts delta(const Counts& after, const Counts& before) {
  Counts d;
  for (const auto& [k, v] : after) {
    auto it = before.find(k);
    d[k] = v - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

Json counts_json(const Counts& c) {
  Json j;
  for (const auto& [k, v] : c) j.set(k, Json(v));
  return j;
}

// ---------------------------------------------------------------------------
// analyze_*: one full analysis per op.

struct AnalyzeSpec {
  lacon::ModelKind kind;
  int n;
  int t;
  int depth;
  int horizon;
  // The answer oracle.
  std::size_t frontier;
  std::optional<std::size_t> diameter;  // nullopt: disconnected
  std::size_t bivalent, univalent0, univalent1;
};

constexpr AnalyzeSpec kAnalyzeDiameter{lacon::ModelKind::kMobile, 4, 1, 2, 3,
                                       2704, 173, 12, 2523, 169};
constexpr AnalyzeSpec kAnalyzeValence{lacon::ModelKind::kSharedMem, 3, 1, 2, 3,
                                      800, std::nullopt, 9, 691, 100};

struct OpResult {
  std::string answer;  // canonical id-free payload
  bool ok = false;
  Counts counts;       // traced runs only
};

std::string analyze_answer(std::size_t frontier,
                           std::optional<std::size_t> diameter,
                           std::size_t biv, std::size_t u0, std::size_t u1) {
  return "frontier=" + std::to_string(frontier) + " diameter=" +
         (diameter ? std::to_string(*diameter) : std::string("disconnected")) +
         " bivalent=" + std::to_string(biv) + " univalent0=" +
         std::to_string(u0) + " univalent1=" + std::to_string(u1);
}

// Everything one analysis owns; members are destroyed engine first.
struct AnalyzeInstance {
  std::unique_ptr<lacon::DecisionRule> rule;
  std::unique_ptr<lacon::LayeredModel> model;
  lacon::LemmaStore lemmas;
  std::unique_ptr<lacon::ValenceEngine> engine;
};

OpResult analyze_op(const AnalyzeSpec& spec, std::mt19937_64& rng,
                    Tracer& tr, std::int64_t op) {
  OpResult r;
  const bool traced = tr.on();
  const Counts before = traced ? read_counts() : Counts{};
  ScopedSpan root(tr, "op", op, 0);

  auto inst = std::make_unique<AnalyzeInstance>();
  {
    ScopedSpan s(tr, "core.model_build", op, root.id());
    inst->rule = lacon::min_after_round(2);
    inst->model = lacon::make_model(spec.kind, spec.n, spec.t, *inst->rule);
    inst->engine = std::make_unique<lacon::ValenceEngine>(
        *inst->model, spec.horizon, lacon::default_exactness(spec.kind),
        &inst->lemmas);
  }
  lacon::LayeredModel& model = *inst->model;

  std::vector<std::vector<lacon::StateId>> levels;
  {
    ScopedSpan s(tr, "engine.explore_ms", op, root.id());
    levels = lacon::reachable_by_depth(model, spec.depth);
  }
  std::vector<lacon::StateId> frontier = levels.back();
  std::shuffle(frontier.begin(), frontier.end(), rng);

  std::optional<std::size_t> diameter;
  {
    const lacon::Graph g = [&] {
      ScopedSpan s(tr, "relation.similarity_ms", op, root.id());
      return lacon::similarity_graph(model, frontier);
    }();
    ScopedSpan s(tr, "relation.diameter_ms", op, root.id());
    diameter = g.diameter();
  }

  const std::size_t states_before = model.num_states();
  std::vector<lacon::ValenceInfo> infos;
  {
    ScopedSpan s(tr, "engine.valence_ms", op, root.id());
    infos = inst->engine->classify_all(frontier);
  }
  std::size_t biv = 0, u0 = 0, u1 = 0;
  for (const auto& v : infos) {
    if (v.bivalent()) ++biv;
    if (v.univalent() && v.value() == 0) ++u0;
    if (v.univalent() && v.value() == 1) ++u1;
  }
  r.answer = analyze_answer(frontier.size(), diameter, biv, u0, u1);
  r.ok = infos.size() == frontier.size() &&
         r.answer == analyze_answer(spec.frontier, spec.diameter,
                                    spec.bivalent, spec.univalent0,
                                    spec.univalent1);
  if (traced) {
    std::size_t explored = 0;
    for (const auto& level : levels) explored += level.size();
    r.counts["explore_states"] = static_cast<double>(explored);
    r.counts["valence_new_states"] =
        static_cast<double>(model.num_states() - states_before);
    r.counts["valence_evaluations"] =
        static_cast<double>(inst->engine->evaluations());
  }
  {
    // Freeing the interned states is part of the op's cost.
    ScopedSpan s(tr, "core.model_release", op, root.id());
    inst.reset();
  }
  if (traced) {
    for (const auto& [k, v] : delta(read_counts(), before)) r.counts[k] = v;
  }
  return r;
}

Json run_analyze(const AnalyzeSpec& spec, std::uint64_t seed, double seconds,
                 Tracer& tr) {
  constexpr int kSetupReps = 7;
  constexpr double kTimeoutMs = 30'000;
  std::mt19937_64 rng(seed);
  std::int64_t setup_op = 0, op = 0;
  std::uint64_t attempted = 0, failed = 0, loop_failed = 0;
  std::vector<std::string> failures;
  // Every analysis is checked against the oracle, set-up and loop alike.
  auto check = [&](const OpResult& r, double ms, const char* phase) {
    ++attempted;
    if (r.ok && ms <= kTimeoutMs) return true;
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(std::string(phase) + ": " +
                         (ms > kTimeoutMs ? "timeout" : r.answer));
    }
    return false;
  };

  // Set-up: pool start (first rep only; the pool is process-wide) plus one
  // untimed warm-up analysis, repeated so run.py can report a median.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    lacon::runtime::global_pool();
    const OpResult r = analyze_op(spec, rng, tr, --setup_op);
    const double ms = ms_between(t0, Clock::now());
    setup_s.push_back(ms / 1000.0);
    check(r, ms, "setup");
  }

  std::string answer;
  std::vector<double> latencies;
  std::vector<double> done_s;  // completion times of the correct ops
  Json::Array per_op;
  const double cpu0 = cpu_seconds();
  const auto loop0 = Clock::now();
  const auto deadline = loop0 + std::chrono::duration<double>(seconds);
  while (Clock::now() < deadline) {
    const auto t0 = Clock::now();
    const OpResult r = analyze_op(spec, rng, tr, ++op);
    const double ms = ms_between(t0, Clock::now());
    latencies.push_back(ms);
    if (check(r, ms, "loop")) {
      done_s.push_back(ms_between(loop0, Clock::now()) / 1000.0);
    } else {
      ++loop_failed;
    }
    if (answer.empty()) answer = r.answer;
    if (tr.on()) per_op.push_back(counts_json(r.counts));
  }
  const double wall_s = ms_between(loop0, Clock::now()) / 1000.0;
  const double cpu_s = cpu_seconds() - cpu0;

  Json out;
  out.set("attempted", Json(attempted));
  out.set("failed", Json(failed));
  Json::Array fj;
  for (auto& f : failures) fj.emplace_back(f);
  out.set("failures", Json(std::move(fj)));
  out.set("answer", Json(answer));
  out.set("setup_s", json_array(setup_s));
  out.set("latencies_ms", json_array(latencies));
  out.set("loop_failed", Json(loop_failed));
  out.set("loop_done_s", json_array(done_s));
  out.set("loop_wall_s", Json(wall_s));
  out.set("loop_cpu_s", Json(cpu_s));
  if (tr.on()) out.set("op_counts", Json(std::move(per_op)));
  return out;
}

// ---------------------------------------------------------------------------
// serve_durable: an in-process laconrd.

struct ServeRequest {
  const char* label;
  const char* line;      // the request, without id
  const char* expected;  // Json::dump() of the id-free result
};

// The request mix. Expected payloads are the daemon's id-free results; the
// mobile n4 d2 valence/diameter rows agree with the analyze_diameter oracle.
const ServeRequest kSmall[] = {
    {"mobile4.layers",
     R"("model":"mobile","n":4,"t":1,"query":"layers","depth":2,"horizon":3)",
     R"({"depth_completed":2,"level_sizes":[16,208,2704],"total_states":2928})"},
    {"mobile4.valence",
     R"("model":"mobile","n":4,"t":1,"query":"valence","depth":2,"horizon":3)",
     R"({"frontier":2704,"classified":2704,"bivalent":12,"univalent0":2523,"univalent1":169,"exact":2704})"},
    {"mobile4.similarity",
     R"("model":"mobile","n":4,"t":1,"query":"similarity","depth":2,"horizon":3)",
     R"({"frontier":2704,"edges":3392,"connected":true})"},
    {"mobile3.valence",
     R"("model":"mobile","n":3,"t":1,"query":"valence","depth":3,"horizon":4)",
     R"({"frontier":2744,"classified":2744,"bivalent":42,"univalent0":2359,"univalent1":343,"exact":2744})"},
    {"sync4.layers",
     R"("model":"sync","n":4,"t":2,"query":"layers","depth":2,"horizon":3)",
     R"({"depth_completed":2,"level_sizes":[16,208,2128],"total_states":2352})"},
    {"sync4.valence",
     R"("model":"sync","n":4,"t":2,"query":"valence","depth":2,"horizon":3)",
     R"({"frontier":2128,"classified":2128,"bivalent":0,"univalent0":1949,"univalent1":179,"exact":2128})"},
};
const ServeRequest kLarge[] = {
    {"sharedmem4.layers",
     R"("model":"sharedmem","n":4,"t":1,"query":"layers","depth":2,"horizon":3)",
     R"({"depth_completed":2,"level_sizes":[16,272,4624],"total_states":4912})"},
    {"sharedmem4.valence",
     R"("model":"sharedmem","n":4,"t":1,"query":"valence","depth":2,"horizon":3)",
     R"({"frontier":4624,"classified":4624,"bivalent":16,"univalent0":4319,"univalent1":289,"exact":4624})"},
};
const ServeRequest kDiameter{
    "mobile4.diameter",
    R"("model":"mobile","n":4,"t":1,"query":"diameter","depth":2,"horizon":3)",
    R"({"frontier":2704,"sources_completed":2704,"diameter":173,"connected":true})"};

// The first request after a restart, one per session key.
const ServeRequest* const kRecoveryProbes[] = {
    &kSmall[1], &kSmall[3], &kSmall[5], &kLarge[1]};

std::vector<const ServeRequest*> all_requests() {
  std::vector<const ServeRequest*> all;
  for (const auto& r : kSmall) all.push_back(&r);
  for (const auto& r : kLarge) all.push_back(&r);
  all.push_back(&kDiameter);
  return all;
}

// The mix, dealt from a seeded shuffle of a fixed deck of 20 requests:
// 16 small warm reads (80 %), 3 on the large session (15 %), 1 diameter
// (5 %). Every run then sends the same proportions in a seeded order, so
// runs differ in interleaving but not in how much of each kind they do.
class Deck {
 public:
  explicit Deck(std::uint64_t seed) : rng_(seed) {
    for (std::size_t i = 0; i < 16; ++i) {
      cards_.push_back(&kSmall[i % std::size(kSmall)]);
    }
    for (std::size_t i = 0; i < 3; ++i) {
      cards_.push_back(&kLarge[i % std::size(kLarge)]);
    }
    cards_.push_back(&kDiameter);
    next_ = cards_.size();
  }

  const ServeRequest& deal() {
    if (next_ == cards_.size()) {
      std::shuffle(cards_.begin(), cards_.end(), rng_);
      next_ = 0;
    }
    return *cards_[next_++];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<const ServeRequest*> cards_;
  std::size_t next_ = 0;
};

// A persistent client connection speaking NDJSON, one request in flight.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      close_fd();
      return;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close_fd();
    }
  }
  ~Client() { close_fd(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const noexcept { return fd_ >= 0; }

  // Sends one line and reads one response line; false on error/timeout.
  bool call(const std::string& line, std::string* response, int timeout_ms) {
    if (fd_ < 0) return false;
    std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t k =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (k <= 0) return false;
      sent += static_cast<std::size_t>(k);
    }
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        response->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return false;
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) continue;
      char chunk[65536];
      const ssize_t k = ::recv(fd_, chunk, sizeof chunk, 0);
      if (k <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(k));
    }
  }

 private:
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
  std::string buf_;
};

constexpr int kRequestTimeoutMs = 60'000;
constexpr const char* kSocket = "layerbench.sock";

struct Reply {
  bool ok = false;
  std::string detail;       // why it failed
  std::string result;       // Json::dump() of "result"
  double elapsed_ms = 0;    // metrics.elapsed_ms
  double new_states = 0;
  double new_views = 0;
};

Reply check_reply(const ServeRequest& req, bool sent,
                  const std::string& line) {
  Reply r;
  if (!sent) {
    r.detail = std::string(req.label) + ": no response (error or timeout)";
    return r;
  }
  auto doc = Json::parse(line);
  if (!doc) {
    r.detail = std::string(req.label) + ": unparsable response";
    return r;
  }
  const Json* status = doc->find("status");
  const Json* result = doc->find("result");
  const Json* metrics = doc->find("metrics");
  if (status == nullptr || status->as_string() != "ok" || result == nullptr ||
      metrics == nullptr) {
    r.detail = std::string(req.label) + ": " + line.substr(0, 200);
    return r;
  }
  r.result = result->dump();
  auto num = [&](const char* k) {
    const Json* v = metrics->find(k);
    return v == nullptr ? -1.0 : v->as_number(-1.0);
  };
  r.elapsed_ms = num("elapsed_ms");
  r.new_states = num("new_states");
  r.new_views = num("new_views");
  r.ok = r.result == req.expected;
  if (!r.ok) {
    r.detail = std::string(req.label) + ": result " + r.result;
  }
  return r;
}

std::string request_line(const ServeRequest& req, std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) + "," + req.line + "}";
}

// A phase that starts a server on the store dir and waits until it answered
// correctly: the cold set-up (empty store dir; one request for every request
// of the mix, which covers every session key, all through the durable WAL
// path) or a recovery (the existing store dir; one probe per session, which
// must also report new_states == 0 and new_views == 0).
struct Phase {
  double ms = 0;  // Server construction until the last correct answer
  Counts counts;  // runtime::Stats deltas over the phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::unique_ptr<lacon::service::Server> server;  // still running
};

std::filesystem::path store_dir() {
  const char* dir = std::getenv("LACON_STORE_DIR");
  return dir != nullptr ? dir : "lacon_store";
}

Phase run_phase(bool cold, Tracer& tr, std::int64_t op) {
  Phase ph;
  if (cold) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir(), ec);
    std::filesystem::create_directories(store_dir(), ec);
  }
  const Counts before = read_counts();
  const auto t0 = Clock::now();
  {
    ScopedSpan root(tr, cold ? "setup" : "recovery", op, 0);
    {
      ScopedSpan s(tr, "service.start", op, root.id());
      lacon::service::ServerOptions opts;
      opts.socket_path = kSocket;
      ph.server = std::make_unique<lacon::service::Server>(opts);
      std::string error;
      if (!ph.server->start(&error)) {
        std::fprintf(stderr, "layerbench: server start failed: %s\n",
                     error.c_str());
        std::exit(2);
      }
    }
    std::vector<const ServeRequest*> requests;
    if (cold) {
      requests = all_requests();
    } else {
      requests.assign(std::begin(kRecoveryProbes), std::end(kRecoveryProbes));
    }
    Client c(kSocket);
    std::uint64_t id = 0;
    for (const ServeRequest* req : requests) {
      ScopedSpan s(tr, "request", op, root.id());
      std::string line;
      const bool sent = c.call(request_line(*req, ++id), &line,
                               kRequestTimeoutMs);
      Reply r = check_reply(*req, sent, line);
      if (!cold && r.ok && (r.new_states != 0 || r.new_views != 0)) {
        r.ok = false;
        r.detail = std::string(req->label) + ": new_states=" +
                   std::to_string(r.new_states) +
                   " new_views=" + std::to_string(r.new_views);
      }
      ++ph.attempted;
      if (!r.ok) {
        ++ph.failed;
        ph.failures.push_back((cold ? "setup " : "recovery ") + r.detail);
      }
    }
  }
  ph.ms = ms_between(t0, Clock::now());
  ph.counts = delta(read_counts(), before);
  return ph;
}

Json phase_json(const Phase& ph) {
  Json j;
  j.set("ms", Json(ph.ms));
  j.set("counts", counts_json(ph.counts));
  j.set("attempted", Json(ph.attempted));
  j.set("failed", Json(ph.failed));
  Json::Array fj;
  for (const auto& f : ph.failures) fj.emplace_back(f);
  j.set("failures", Json(std::move(fj)));
  return j;
}

std::string g_self_exe;  // this program, for phases run as child processes

// Runs one phase in a fresh child process, as a restarted daemon would be,
// so the parent's heap and peak RSS stay those of the one server it keeps.
std::optional<Json> run_phase_child(bool cold) {
  const std::string cmd = "'" + g_self_exe + "' serve_phase " +
                          (cold ? "setup" : "recovery");
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::string out;
  char buf[4096];
  std::size_t k = 0;
  while ((k = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, k);
  if (::pclose(pipe) != 0) return std::nullopt;
  return Json::parse(out);
}

struct ServeLoopSample {
  double latency_ms;
  double elapsed_ms;
  double done_s;  // completion time since the loop started
  bool ok;
};

Json run_serve(std::uint64_t seed, double seconds, Tracer& tr) {
  constexpr int kSetupReps = 3;
  constexpr int kRecoveryReps = 11;
  constexpr int kClients = 4;

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  // Set-up and recovery requests are checked too and count as attempted.
  auto add_phase = [&](const Json& ph, Json::Array& times,
                       Json::Array& counts) {
    attempted += static_cast<std::uint64_t>(ph.find("attempted")->as_number());
    failed += static_cast<std::uint64_t>(ph.find("failed")->as_number());
    for (const Json& f : ph.find("failures")->as_array()) {
      if (failures.size() < 8) failures.push_back(f.as_string());
    }
    times.push_back(*ph.find("ms"));
    counts.push_back(*ph.find("counts"));
  };
  auto child_phase = [&](bool cold, Json::Array& times, Json::Array& counts) {
    const std::optional<Json> ph = run_phase_child(cold);
    if (!ph) {
      std::fprintf(stderr, "layerbench: %s child failed\n",
                   cold ? "setup" : "recovery");
      std::exit(2);
    }
    add_phase(*ph, times, counts);
  };
  std::int64_t op = 0;

  // Set-up, repeated: the first reps in child processes, the last one in
  // this process, whose server serves the timed loop.
  Json::Array setup_ms, setup_counts;
  for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
    ScopedSpan s(tr, "setup", --op, 0);
    child_phase(true, setup_ms, setup_counts);
  }
  Phase setup = run_phase(true, tr, --op);
  add_phase(phase_json(setup), setup_ms, setup_counts);
  std::unique_ptr<lacon::service::Server> server = std::move(setup.server);

  // Timed closed loop: kClients connections, each waits for its reply.
  std::vector<std::vector<ServeLoopSample>> samples(kClients);
  std::vector<std::vector<std::string>> client_failures(kClients);
  std::vector<std::uint64_t> client_failed(kClients, 0);
  std::map<std::string, std::uint64_t> mix;
  std::map<std::string, std::set<std::string>> seen;  // label -> results
  std::mutex mix_mu;
  std::atomic<std::uint64_t> ids{0};
  auto engine_evaluations = [&]() {
    // The valence engines of every session the mix touches.
    double total = 0;
    auto& sessions = server->sessions();
    const std::tuple<lacon::ModelKind, int, int, int> keys[] = {
        {lacon::ModelKind::kMobile, 4, 1, 3},
        {lacon::ModelKind::kMobile, 3, 1, 4},
        {lacon::ModelKind::kSync, 4, 2, 3},
        {lacon::ModelKind::kSharedMem, 4, 1, 3}};
    for (const auto& [kind, n, t, h] : keys) {
      total += static_cast<double>(
          sessions.session(kind, n, t).engine(h).evaluations());
    }
    return total;
  };
  const Counts loop_before = read_counts();
  const double evals0 = engine_evaluations();
  const double cpu0 = cpu_seconds();
  const auto loop0 = Clock::now();
  const auto deadline = loop0 + std::chrono::duration<double>(seconds);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Deck deck(seed * 1000003 + static_cast<std::uint64_t>(c));
        Client client(kSocket);
        std::map<std::string, std::uint64_t> local_mix;
        std::map<std::string, std::set<std::string>> local_seen;
        while (Clock::now() < deadline) {
          const ServeRequest& req = deck.deal();
          const std::uint64_t id = ++ids;
          std::string line;
          const auto t0 = Clock::now();
          const double t0_us = tr.on() ? tr.now_us() : 0;
          const bool sent =
              client.call(request_line(req, id), &line, kRequestTimeoutMs);
          const double lat = ms_between(t0, Clock::now());
          const Reply r = check_reply(req, sent, line);
          samples[c].push_back(
              {lat, r.elapsed_ms, ms_between(loop0, Clock::now()) / 1000.0,
               r.ok});
          ++local_mix[req.label];
          local_seen[req.label].insert(r.result);
          if (!r.ok) {
            ++client_failed[c];
            if (client_failures[c].size() < 8) {
              client_failures[c].push_back(r.detail);
            }
            if (!sent) break;  // the connection is unusable
          }
          if (tr.on()) {
            // Client-side request span plus the server's own execute time,
            // reported in the response, as a child covering its start.
            Span root;
            root.name = "op";
            root.id = tr.next_id();
            root.op = static_cast<std::int64_t>(id);
            root.tid = c;
            root.start_us = t0_us;
            root.end_us = t0_us + lat * 1000.0;
            Span exec = root;
            exec.name = "service.execute_ms";
            exec.id = tr.next_id();
            exec.parent = root.id;
            exec.end_us = t0_us + std::min(lat, r.elapsed_ms) * 1000.0;
            tr.add(std::move(root));
            tr.add(std::move(exec));
          }
        }
        std::lock_guard<std::mutex> lock(mix_mu);
        for (const auto& [k, v] : local_mix) mix[k] += v;
        for (const auto& [k, v] : local_seen) {
          seen[k].insert(v.begin(), v.end());
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double wall_s = ms_between(loop0, Clock::now()) / 1000.0;
  const double cpu_s = cpu_seconds() - cpu0;
  const Counts loop_counts = delta(read_counts(), loop_before);
  const double evals = engine_evaluations() - evals0;

  std::vector<double> latencies, elapsed, done_s;
  std::uint64_t loop_failed = 0;
  for (int c = 0; c < kClients; ++c) {
    for (const auto& s : samples[c]) {
      latencies.push_back(s.latency_ms);
      elapsed.push_back(s.elapsed_ms);
      if (s.ok) done_s.push_back(s.done_s);
    }
    attempted += samples[c].size();
    loop_failed += client_failed[c];
    for (auto& f : client_failures[c]) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
  failed += loop_failed;

  // Recovery: stop without saving, then start a new daemon process on the
  // same store dir, repeatedly.
  server.reset();
  Json::Array recovery_ms, recovery_counts;
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    ScopedSpan s(tr, "recovery", --op, 0);
    child_phase(false, recovery_ms, recovery_counts);
  }
  std::error_code ec;
  std::filesystem::remove_all(store_dir(), ec);

  Json out;
  out.set("attempted", Json(attempted));
  out.set("failed", Json(failed));
  Json::Array fj;
  for (auto& f : failures) fj.emplace_back(f);
  out.set("failures", Json(std::move(fj)));
  // The answer is every distinct result the loop saw, per request.
  std::string answer;
  for (const auto& [label, results] : seen) {
    answer += (answer.empty() ? "" : " ") + label + "=";
    for (const auto& result : results) {
      answer += (&result == &*results.begin() ? "" : "|") + result;
    }
  }
  out.set("answer", Json(answer));
  Json::Array setup_s;
  for (const Json& ms : setup_ms) setup_s.emplace_back(ms.as_number() / 1000);
  out.set("setup_s", Json(std::move(setup_s)));
  out.set("setup_counts", Json(std::move(setup_counts)));
  out.set("latencies_ms", json_array(latencies));
  out.set("execute_ms", json_array(elapsed));
  out.set("loop_failed", Json(loop_failed));
  out.set("loop_done_s", json_array(done_s));
  out.set("loop_wall_s", Json(wall_s));
  out.set("loop_cpu_s", Json(cpu_s));
  out.set("loop_counts", counts_json(loop_counts));
  out.set("loop_valence_evaluations", Json(evals));
  Json mj;
  for (const auto& [k, v] : mix) mj.set(k, Json(v));
  out.set("mix", std::move(mj));
  out.set("recovery_ms", Json(std::move(recovery_ms)));
  out.set("recovery_counts", Json(std::move(recovery_counts)));
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: layerbench_harness analyze_diameter|analyze_valence|"
               "serve_durable --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string workload = argv[1];
  g_self_exe = std::filesystem::absolute(argv[0]).string();
  if (workload == "serve_phase" && argc == 3) {
    // One set-up or recovery phase of serve_durable, run by the parent.
    Tracer off(false);
    Phase ph = run_phase(std::string(argv[2]) == "setup", off, 0);
    ph.server.reset();
    std::printf("%s\n", phase_json(ph).dump().c_str());
    return 0;
  }
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else {
      return usage();
    }
  }
  if (seconds <= 0) return usage();

  Tracer tr(trace != 0);
  Json out;
  if (workload == "analyze_diameter") {
    out = run_analyze(kAnalyzeDiameter, seed, seconds, tr);
  } else if (workload == "analyze_valence") {
    out = run_analyze(kAnalyzeValence, seed, seconds, tr);
  } else if (workload == "serve_durable") {
    out = run_serve(seed, seconds, tr);
  } else {
    return usage();
  }

  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  out.set("peak_rss_kb", Json(static_cast<double>(ru.ru_maxrss)));
  out.set("workers", Json(static_cast<int>(lacon::runtime::worker_count())));
#ifdef NDEBUG
  out.set("ndebug", Json(true));
#else
  out.set("ndebug", Json(false));
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  out.set("sanitizer", Json(true));
#else
  out.set("sanitizer", Json(false));
#endif
  if (tr.on() && !tr.write("spans.json")) {
    std::fprintf(stderr, "layerbench: cannot write spans.json\n");
    return 2;
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
