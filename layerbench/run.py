#!/usr/bin/env python3
"""layerbench: the repository benchmark.

Builds the lacon libraries and the benchmark harness from source, runs one
workload for a fixed time, checks every answer, and prints the metrics. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 the harness records spans around each call into a layer and the
metrics are the per-layer ones (see layerbench/LAYERS.md).

    python3 layerbench/run.py --workload analyze_diameter --seed 1 \\
        --seconds 20 --trace 0
    python3 layerbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 layerbench/run.py --seed-check --seed 1 --seconds 5

Exit codes: 0 all answers correct; 1 a wrong, failed or timed-out answer,
or a build/harness failure; 3 the run was refused (see refuse_reasons).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The pinned analysis worker count (LACON_THREADS). Recorded with every
# result; timings at different worker counts are not comparable.
WORKERS = 2

# A harness run that takes longer than this has hung; it is killed and the
# run fails. (One workload's run takes seconds + about 15 s.)
RUN_LIMIT_S = 160

# Metric names and units: BENCHMARK.json at the repository root is the one
# list of them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])

THROUGHPUT_WINDOWS = 6

# Spans the harness records around calls into the layers (the per-op root is
# "op"); their names are the per-layer metric names.
ANALYZE_SPANS = ("engine.explore_ms", "relation.similarity_ms",
                 "relation.diameter_ms", "engine.valence_ms")


class RunError(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "layerbench")


def build(bdir):
    """Configures and builds the harness (incrementally); returns its path."""
    def run(cmd):
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            raise RunError("build step failed: " + " ".join(cmd))
    cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    run(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", bdir, "-j", jobs, "--target",
         "layerbench_harness"])
    return os.path.join(bdir, "layerbench_harness")


def refuse_reasons(trace):
    """Conditions under which a timed (untraced) run would be misleading."""
    reasons = []
    if trace:
        return reasons
    if "LACON_TRACE" in os.environ:
        reasons.append("LACON_TRACE is set (library tracing skews timings)")
    for k in ("LACON_FAULT_SEED", "LACON_FAULT_RATE"):
        if k in os.environ:
            reasons.append(k + " is set (fault injection)")
    for k in ("CXXFLAGS", "LDFLAGS"):
        if "sanitize" in os.environ.get(k, ""):
            reasons.append(k + " enables a sanitizer")
    return reasons


def filesystem_of(path):
    p = subprocess.run(["stat", "-f", "-c", "%T", path],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return p.stdout.strip() or "unknown"


def run_harness(harness, workload, seed, seconds, trace, bdir):
    """Runs the harness in a fresh directory; returns (raw, spans, record)."""
    rdir = os.path.join(bdir, "runs", "%s-%d-%d-%d" % (
        workload, seed, trace, os.getpid()))
    shutil.rmtree(rdir, ignore_errors=True)
    os.makedirs(rdir)
    env = dict(os.environ)
    env["LACON_THREADS"] = str(WORKERS)
    if workload == "serve_durable":
        env["LACON_WAL"] = "on"
        env["LACON_STORE_DIR"] = "store"
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "LACON_THREADS": WORKERS,
        "knobs": {k: v for k, v in sorted(env.items())
                  if k.startswith("LACON_")},
        "store_fs": filesystem_of(rdir),
    }
    # The harness starts child processes of its own (serve_durable's set-up
    # and recovery phases), so it runs in its own process group and a hung
    # run is killed as a group.
    p = subprocess.Popen(
        [harness, workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=rdir, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = p.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        shutil.rmtree(rdir, ignore_errors=True)
        raise RunError(workload + ": harness timed out")
    spans = None
    if trace and p.returncode == 0:
        with open(os.path.join(rdir, "spans.json")) as f:
            spans = json.load(f)["traceEvents"]
    shutil.rmtree(rdir, ignore_errors=True)
    if p.returncode != 0:
        raise RunError("%s: harness exited with %d" % (workload, p.returncode))
    raw = json.loads(stdout.strip().splitlines()[-1])
    record["NDEBUG"] = raw["ndebug"]
    record["sanitizer"] = raw["sanitizer"]
    record["workers_seen_by_harness"] = raw["workers"]
    return raw, spans, record


# ---------------------------------------------------------------------------
# Metrics.

def tail_percentile(workload):
    # The highest percentile with at least ten samples beyond it at the
    # benchmark's run length, fixed per workload so runs stay comparable.
    return 99 if workload == "serve_durable" else 90


def percentile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def throughput(raw):
    """Correct ops completed per second: the median over THROUGHPUT_WINDOWS
    equal windows of the timed loop, so one burst of interference from
    outside the benchmark moves one window, not the run."""
    wall = raw["loop_wall_s"]
    counts = [0] * THROUGHPUT_WINDOWS
    for t in raw["loop_done_s"]:
        counts[min(THROUGHPUT_WINDOWS - 1,
                   int(t / wall * THROUGHPUT_WINDOWS))] += 1
    return statistics.median(counts) * THROUGHPUT_WINDOWS / wall


def end_to_end(workload, raw):
    lat = raw["latencies_ms"]
    return {
        "throughput_ops_s": throughput(raw),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": percentile(lat, tail_percentile(workload)),
        "setup_s": statistics.median(raw["setup_s"]),
        # An analysis keeps nothing durable: every op is a restart from an
        # empty model, so its recovery time is the op latency.
        "recovery_ms": statistics.median(raw.get("recovery_ms", lat)),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def ratio(num, den):
    return num / den if den else 0.0


def span_tree(spans):
    """Per span: (name, op, duration_ms, self_ms). Self time is the duration
    minus the part of its interval covered by its children."""
    by_id = {e["args"]["id"]: e for e in spans}
    children = {}
    for e in spans:
        children.setdefault(e["args"]["parent"], []).append(e)
    out = []
    for sid, e in by_id.items():
        lo, hi = e["ts"], e["ts"] + e["dur"]
        ivs = sorted((max(lo, c["ts"]), min(hi, c["ts"] + c["dur"]))
                     for c in children.get(sid, ()))
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in ivs:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((e["name"], e["args"]["op"], e["dur"] / 1000.0,
                    (e["dur"] - covered) / 1000.0))
    return out


def loop_span_durations(tree):
    """name -> list of durations over timed-loop ops (op ids > 0)."""
    d = {}
    for name, op, dur, _ in tree:
        if op > 0:
            d.setdefault(name, []).append(dur)
    return d


def per_layer(workload, raw, tree):
    m = {name: 0.0 for name, _ in PER_LAYER}
    wall, cpu = raw["loop_wall_s"], raw["loop_cpu_s"]
    m["runtime.cpu_per_wall"] = ratio(cpu, wall)
    med = statistics.median
    if workload != "serve_durable":
        spans = loop_span_durations(tree)
        for name in ANALYZE_SPANS:
            m[name] = med(spans[name])
        ops = raw["op_counts"]

        def total(key):
            return sum(o[key] for o in ops)

        def per_op(key):
            return med([o[key] for o in ops])
        m["relation.diameter_sources"] = per_op("relation.diameter_sources")
        m["relation.index_precision"] = ratio(
            total("relation.index_confirmed"),
            total("relation.index_candidates"))
        m["engine.explore_states"] = per_op("explore_states")
        m["engine.valence_new_states"] = per_op("valence_new_states")
        m["engine.valence_evaluations"] = per_op("valence_evaluations")
        hits, misses = total("lemmas.hits"), total("lemmas.misses")
        m["engine.lemma_hit_ratio"] = ratio(hits, hits + misses)
        hits, misses = total("arena.state_hits"), total("arena.state_misses")
        m["core.state_hit_ratio"] = ratio(hits, hits + misses)
        hits, misses = total("arena.view_hits"), total("arena.view_misses")
        m["core.view_hit_ratio"] = ratio(hits, hits + misses)
        m["core.shard_waits"] = med([o["arena.state_shard_waits"] +
                                     o["arena.view_shard_waits"]
                                     for o in ops])
        m["runtime.steals_per_op"] = ratio(total("pool.steals"), len(ops))
        return m

    # serve_durable: the layers run inside the server, so their work and
    # time come from runtime::Stats deltas over the timed loop; the service
    # split comes from each response's own elapsed_ms.
    c = raw["loop_counts"]
    requests = c["service.requests"]
    m["relation.diameter_ms"] = ratio(c["relation.diameter_time.ns"],
                                      c["relation.diameter_time.calls"]) / 1e6
    m["relation.diameter_sources"] = ratio(
        c["relation.diameter_sources"], c["relation.diameter_time.calls"])
    m["relation.similarity_ms"] = ratio(c["relation.index_time.ns"],
                                        c["relation.index_time.calls"]) / 1e6
    m["relation.index_precision"] = ratio(c["relation.index_confirmed"],
                                          c["relation.index_candidates"])
    m["engine.explore_ms"] = ratio(c["explore.expand_time.ns"], requests) / 1e6
    m["engine.explore_states"] = ratio(c["explore.states_discovered"],
                                       requests)
    m["engine.valence_ms"] = ratio(c["valence.classify_time.ns"],
                                   c["valence.classify_time.calls"]) / 1e6
    m["engine.valence_new_states"] = ratio(c["arena.state_misses"], requests)
    m["engine.valence_evaluations"] = ratio(raw["loop_valence_evaluations"],
                                            requests)
    hits, misses = c["lemmas.hits"], c["lemmas.misses"]
    m["engine.lemma_hit_ratio"] = ratio(hits, hits + misses)
    hits, misses = c["arena.state_hits"], c["arena.state_misses"]
    m["core.state_hit_ratio"] = ratio(hits, hits + misses)
    hits, misses = c["arena.view_hits"], c["arena.view_misses"]
    m["core.view_hit_ratio"] = ratio(hits, hits + misses)
    m["core.shard_waits"] = ratio(c["arena.state_shard_waits"] +
                                  c["arena.view_shard_waits"], requests)
    m["runtime.steals_per_op"] = ratio(c["pool.steals"], requests)
    lat, exe = raw["latencies_ms"], raw["execute_ms"]
    over = [a - b for a, b in zip(lat, exe)]
    m["service.execute_p50_ms"] = med(exe)
    m["service.execute_p99_ms"] = percentile(exe, 99)
    m["service.overhead_p50_ms"] = med(over)
    m["service.overhead_p99_ms"] = percentile(over, 99)
    m["service.commit_waits_per_request"] = ratio(c["service.commit_waits"],
                                                  requests)
    m["store.wal_append_ms_per_request"] = ratio(
        c["wal.append_time.ns"], requests) / 1e6
    m["store.wal_bytes_per_request"] = ratio(c["wal.bytes_appended"],
                                             requests)
    setup = raw["setup_counts"]
    m["store.setup_append_ms"] = med(
        [s["wal.append_time.ns"] / 1e6 for s in setup])
    m["store.setup_wal_bytes"] = med([s["wal.bytes_appended"] for s in setup])
    rec = raw["recovery_counts"]
    m["store.recovery_load_ms"] = med(
        [r["store.load_time.ns"] / 1e6 for r in rec])
    m["store.recovery_replay_ms"] = med(
        [r["wal.replay_time.ns"] / 1e6 for r in rec])
    m["store.recovery_bytes_read"] = med([r["store.bytes_read"] for r in rec])
    return m


def self_time_report(tree):
    """Lines: per span name over the timed loop, median duration, median
    self time and its share of the summed op (root) time."""
    rows = {}
    for name, op, dur, self_ms in tree:
        if op > 0:
            rows.setdefault(name, ([], []))
            rows[name][0].append(dur)
            rows[name][1].append(self_ms)
    op_total = sum(rows.get("op", ([], []))[0]) or 1.0
    lines = ["%-28s %6s %12s %12s %9s %9s" % (
        "span", "count", "median_ms", "self_med_ms", "time_%", "self_%")]
    for name in sorted(rows, key=lambda k: -sum(rows[k][0])):
        durs, selfs = rows[name]
        lines.append("%-28s %6d %12.4f %12.4f %8.1f%% %8.1f%%" % (
            name, len(durs), statistics.median(durs),
            statistics.median(selfs), 100.0 * sum(durs) / op_total,
            100.0 * sum(selfs) / op_total))
    return lines


# ---------------------------------------------------------------------------
# One workload.

def records_dir(bdir):
    d = os.path.join(bdir, "records")
    os.makedirs(d, exist_ok=True)
    return d


def run_workload(harness, bdir, workload, seed, seconds, trace):
    raw, spans, record = run_harness(harness, workload, seed, seconds, trace,
                                    bdir)
    if record["sanitizer"] and not trace:
        raise RunError("refused: the harness was built with a sanitizer")
    attempted, failed = raw["attempted"], raw["failed"]
    e2e = end_to_end(workload, raw)
    print("# %s seed=%d seconds=%s trace=%d" % (workload, seed, seconds,
                                                 trace))
    print("# run record: nproc=%s LACON_THREADS=%s NDEBUG=%s knobs=%s "
          "store_fs=%s" % (record["nproc"], record["LACON_THREADS"],
                           record["NDEBUG"], json.dumps(record["knobs"]),
                           record["store_fs"]))
    print("# answer: " + raw["answer"])
    if "mix" in raw:
        print("# request mix: " + json.dumps(raw["mix"], sort_keys=True))
    for f in raw["failures"]:
        print("# FAILED: " + f)
    print("# failed_share: %.6f (%d of %d ops)" % (
        failed / attempted if attempted else 1.0, failed, attempted))
    print("# latency_p%d_ms (= latency_tail_ms): %.4f ms over %d samples" % (
        tail_percentile(workload), e2e["latency_tail_ms"],
        len(raw["latencies_ms"])))
    result = {"record": record, "end_to_end": e2e,
              "attempted": attempted, "failed": failed,
              "answer": raw["answer"], "setup_s": raw["setup_s"],
              "recovery_ms": raw.get("recovery_ms")}
    if trace:
        tree = span_tree(spans)
        layers = per_layer(workload, raw, tree)
        result["per_layer"] = layers
        result["self_time"] = self_time_report(tree)
        if "op_counts" in raw:
            result["op_counts"] = raw["op_counts"]
        print("# self time per span (timed loop):")
        for line in result["self_time"]:
            print("#   " + line)
        base = os.path.join(records_dir(bdir),
                            "%s-seed%d-trace0.json" % (workload, seed))
        if os.path.exists(base):
            with open(base) as f:
                untraced = json.load(f)["end_to_end"]
            print("# tracing overhead vs the untraced run of this seed: " +
                  " ".join("%s %+.1f%%" % (k, 100.0 * (e2e[k] / untraced[k]
                                                       - 1.0))
                           for k, _ in END_TO_END if untraced.get(k)))
        else:
            print("# tracing overhead: no untraced run of this seed recorded")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, m in metrics.items():
        print("%-36s %16.6f %s" % (name, m["value"], m["unit"]))
    result["metrics"] = metrics
    with open(os.path.join(records_dir(bdir), "%s-seed%d-trace%d.json" % (
            workload, seed, trace)), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return result


def seed_check(harness, bdir, workloads, seed, seconds):
    """Runs each workload traced on two seeds: answers must be identical;
    per-op work counts that differ between seeds are reported."""
    ok = True
    for w in workloads:
        runs = [run_harness(harness, w, s, seconds, 1, bdir)[0]
                for s in (seed, seed + 1)]
        same = runs[0]["answer"] == runs[1]["answer"]
        ok = ok and same and all(r["failed"] == 0 for r in runs)
        print("# seed check %s seeds %d,%d: answers %s" % (
            w, seed, seed + 1, "identical" if same else "DIFFER"))
        if "op_counts" not in runs[0]:
            continue
        for key in sorted(k for k in runs[0]["op_counts"][0]
                          if not k.endswith(".ns")):
            vals = [sorted({o[key] for o in r["op_counts"]}) for r in runs]
            if vals[0] != vals[1] or len(vals[0]) > 1:
                print("#   per-op %s differs: seed %d %s, seed %d %s" % (
                    key, seed, vals[0][:4], seed + 1, vals[1][:4]))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-check", action="store_true",
                    help="compare answers and per-op counts on two seeds")
    args = ap.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    reasons = refuse_reasons(args.trace)
    if reasons:
        for r in reasons:
            sys.stderr.write("layerbench: refused: %s\n" % r)
        return 3
    try:
        bdir = build_dir()
        harness = build(bdir)
        if args.seed_check:
            return 0 if seed_check(harness, bdir, workloads, args.seed,
                                   args.seconds) else 1
        results = [run_workload(harness, bdir, w, args.seed, args.seconds,
                                args.trace) for w in workloads]
    except RunError as e:
        sys.stderr.write("layerbench: %s\n" % e)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (w, k): v for w, r in zip(workloads, results)
                   for k, v in r["metrics"].items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
