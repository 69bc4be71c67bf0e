#!/usr/bin/env python3
"""The repository's end-to-end benchmark (see perfbench/README.md).

One measured run of one workload, from the root of a source checkout:

  python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 10 --trace 0

builds the library, sieve_server and the perfbench binary in Release
(into .bench_build, or $CARGO_TARGET_DIR when set), runs the workload,
verifies every answer, prints the metrics as a table and, as the last
stdout line, one JSON object {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 its per-layer metrics, a layer table and a merged Chrome trace.
Each run also appends a record to .bench_build/perfbench-results/
results.jsonl.

Compare two result sets (JSON-lines files of such records):

  python3 perfbench/run.py compare BEFORE.jsonl AFTER.jsonl

prints, per workload and end-to-end metric, both medians, each set's
quartile spread and whether they agree within the metric's bound.

Exit status: 0 on a correct run, 1 on a wrong answer or failed op (no
timings are printed then), 2 on a build or set-up failure, 3 when
loopback TCP is unavailable (a skip marker is recorded, never zeros).
"""

import argparse
import collections
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rpc_small", "sieve_tcp", "sieve_local")
RUN_DEADLINE_S = 175  # a run must end within 180 s once built
RUN_FLOOR_S = 150

# Which end-to-end metric each layer metric should move, and where.
MOVES = {
    "net.rtt_us_p50": "op_p50_us, ops_per_s on rpc_small",
    "net.transport_us_p50": "op_p50_us, ops_per_s on rpc_small",
    "net.server.queue_depth_p99": "op_tail_us on rpc_small",
    "net.server.backpressure_pauses": "op_tail_us on rpc_small",
    "net.serve_us_p50": "op_p50_us on rpc_small and sieve_tcp",
    "net.oneway_us_p50": "op_p50_us on sieve_tcp",
    "net.wire_bytes_per_op": "op_p50_us on sieve_tcp",
    "net.frames_per_op": "op_p50_us on sieve_tcp",
    "net.connects": "setup_s; failed ops",
    "net.server.errors": "setup_s; failed ops",
    "concurrency.queue_wait_us_p50": "op_p50_us, ops_per_s on rpc_small",
    "concurrency.queue_wait_us_p99": "op_tail_us on rpc_small",
    "concurrency.run_us_p50": "op_p50_us, ops_per_s on rpc_small",
    "concurrency.busy_frac": "ops_per_s on rpc_small",
    "concurrency.steals": "op_tail_us on rpc_small",
    "concurrency.overflow": "op_tail_us on rpc_small",
    "concurrency.spawned_per_sieve": "op_p50_us on sieve_local",
    "concurrency.dispatch_us_p50": "op_p50_us on sieve_local",
    "concurrency.monitor_wait_us_p50": "op_p50_us on sieve_local",
    "concurrency.quiesce_ms": "op_p50_us on sieve_local",
    "aop.split_ms": "op_p50_us on sieve_local",
    "aop.woven_calls_per_sieve": "op_p50_us on sieve_local",
    "aop.create_ms": "setup_s, op_p50_us on sieve_tcp",
    "strategies.packs_per_sieve": "op_p50_us on both sieves",
    "serial.encode_us_per_pack": "op_p50_us, cpu_us_per_op on sieve_tcp",
    "serial.decode_us_per_pack": "op_p50_us, cpu_us_per_op on sieve_tcp",
    "serial.bytes_per_pack": "op_p50_us, cpu_us_per_op on sieve_tcp",
    "cluster.sync_calls_per_op": "op_p50_us on sieve_tcp",
    "cluster.one_way_per_op": "op_p50_us on sieve_tcp",
    "cluster.payload_bytes_per_op": "op_p50_us on sieve_tcp",
    "sieve.process_us_p50": "op_p50_us on both sieves",
    "sieve.divisions_per_sieve": "op_p50_us on both sieves",
    "obs.trace_dropped": "must be 0 for the traced run to count",
    "obs.tracing_overhead_frac": "traced vs untraced primary metric",
    "obs.unexplained_frac": "share of op time the split leaves out",
}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


# ---- build -----------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def build():
    """Configure (once) and build the Release binaries; return their paths."""
    for needed in ("CMakeLists.txt", "src", "examples/sieve_server.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from a full source checkout" % needed)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    cache = os.path.join(out, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "sieve_server", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path))
    with open(cache, encoding="utf-8") as f:
        build_type = next((line.strip().split("=", 1)[1] for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        fail("refusing to report from a %r build; results need Release" %
             build_type)
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "aspectpar", "examples", "sieve_server"))


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


# ---- registry and trace arithmetic -----------------------------------------

def series(registry, name):
    return [m for m in registry.get("metrics", []) if m["name"] == name]


def counter(registry, name):
    return sum(m.get("value", 0) for m in series(registry, name))


def buckets(registry, name):
    """Cumulative bucket counts of every series of histogram `name`, summed."""
    total = {}
    for m in series(registry, name):
        for b in m.get("buckets", []):
            le = float("inf") if b["le"] == "+Inf" else float(b["le"])
            total[le] = total.get(le, 0) + b["count"]
    return total


def delta_percentile(before, after, name, pct):
    """Percentile of what histogram `name` recorded between two snapshots,
    interpolated inside its bucket like obs::Histogram::percentile."""
    b0, b1 = buckets(before, name), buckets(after, name)
    bounds = sorted(b1)
    cum = [b1[le] - b0.get(le, 0) for le in bounds]
    if not cum or cum[-1] <= 0:
        return 0.0
    rank = pct / 100.0 * cum[-1]
    prev_le, prev_c = 0.0, 0
    for le, c in zip(bounds, cum):
        if c >= rank:
            if le == float("inf"):
                return prev_le
            return prev_le + (le - prev_le) * (rank - prev_c) / max(1, c - prev_c)
        prev_le, prev_c = le, c
    return prev_le


def span_percentile(values, pct, low):
    """Percentile of whole-microsecond span figures (Chrome traces keep
    durations truncated to 1 us): each value v stands for the interval
    [v + low, v + low + 1), and the percentile is interpolated inside it,
    so a mass of equal values does not read as one exact number."""
    if not values:
        return 0.0
    counts = collections.Counter(values)
    rank = pct / 100.0 * len(values)
    seen = 0
    for v in sorted(counts):
        if seen + counts[v] >= rank:
            return v + low + (rank - seen) / counts[v]
        seen += counts[v]
    return max(values) + low + 1


def load_spans(path):
    try:
        with open(path, encoding="utf-8") as f:
            return [e for e in json.load(f) if e.get("ph") == "X"]
    except (OSError, ValueError):
        return []


def span_metrics(trace_dir, client_sig, serve_sig):
    """Durations of the server's `serve_sig` spans, and the client wire
    span minus the server span it caused (matched by parent span id)."""
    client = {e["args"]["span_id"]: e["dur"]
              for e in load_spans(os.path.join(trace_dir, "client.json"))
              if e["name"] == client_sig and "span_id" in e.get("args", {})}
    serve, transport = [], []
    for name in sorted(os.listdir(trace_dir)):
        if not name.startswith("server-"):
            continue
        for e in load_spans(os.path.join(trace_dir, name)):
            if e["name"] != serve_sig:
                continue
            serve.append(e["dur"])
            parent = e.get("args", {}).get("parent_span_id")
            if parent in client:
                transport.append(client[parent] - e["dur"])
    return {"serve": serve, "transport": transport,
            "client": list(client.values())}


# ---- metrics ---------------------------------------------------------------

def end_to_end(doc):
    w = doc["window"]
    return {
        "ops_per_s": w["ops_per_s"],
        "op_p50_us": w["op_p50_us"],
        "op_tail_us": w["op_tail_us"],
        "cpu_us_per_op": w["cpu_us_per_op"],
        "peak_rss_mb": w["peak_rss_mb"],
        "setup_s": statistics.median(doc["setup_s"]),
    }


def per_layer(doc, trace_dir):
    workload = doc["workload"]
    t = doc["traced"]
    win = t["window"]
    ops = win["ops"]
    counts = dict(t.get("counts", {}))
    counts.update(counts.pop("net", {}))
    c0, c1 = t["client_metrics"]
    p0, p1 = t["profiles"] if "profiles" in t else ({}, {})
    servers = t["server_telemetry"]
    m = dict.fromkeys(MOVES, 0.0)

    def prof(name):
        return p0.get(name, {}), p1.get(name, {})

    def prof_p50(name):
        return delta_percentile(*prof(name), "profile.latency_us", 50)

    def prof_calls(name):
        return counter(prof(name)[1], "profile.calls") - \
            counter(prof(name)[0], "profile.calls")

    def server_sum(fn):
        return sum(fn(s0["metrics"], s1["metrics"]) for s0, s1 in servers)

    def server_p(name, pct):
        # Percentile over every server's histogram deltas together.
        b0 = {"metrics": [x for s0, _ in servers
                          for x in series(s0["metrics"], name)]}
        b1 = {"metrics": [x for _, s1 in servers
                          for x in series(s1["metrics"], name)]}
        return delta_percentile(b0, b1, name, pct)

    if servers:
        m["net.rtt_us_p50"] = delta_percentile(c0, c1, "net.rtt_us", 50)
        m["net.server.queue_depth_p99"] = server_p("net.server.queue_depth", 99)
        m["net.server.backpressure_pauses"] = server_sum(
            lambda a, b: counter(b, "net.server.backpressure_pauses") -
            counter(a, "net.server.backpressure_pauses"))
        m["net.server.errors"] = sum(
            s1["server"]["protocol_errors"] + s1["server"]["dispatch_errors"] -
            s0["server"]["protocol_errors"] - s0["server"]["dispatch_errors"]
            for s0, s1 in servers)
        for key in ("net.wire_bytes_per_op", "net.frames_per_op",
                    "net.connects", "cluster.sync_calls_per_op",
                    "cluster.one_way_per_op", "cluster.payload_bytes_per_op"):
            m[key] = counts[key]
        m["concurrency.queue_wait_us_p50"] = server_p("threadpool.queue_wait", 50)
        m["concurrency.queue_wait_us_p99"] = server_p("threadpool.queue_wait", 99)
        m["concurrency.run_us_p50"] = server_p("threadpool.run_us", 50)
        busy = server_sum(lambda a, b: counter(b, "threadpool.busy_us") -
                          counter(a, "threadpool.busy_us"))
        capacity = sum(counter(s1["metrics"], "threadpool.workers") *
                       (s1["uptime_us"] - s0["uptime_us"]) for s0, s1 in servers)
        m["concurrency.busy_frac"] = busy / capacity if capacity else 0.0
        for key, name in (("concurrency.steals", "threadpool.steals"),
                          ("concurrency.overflow", "threadpool.overflow")):
            m[key] = server_sum(lambda a, b, n=name: counter(b, n) -
                                counter(a, n)) / ops
        serial = t["serial"]
        m["serial.encode_us_per_pack"] = serial["encode_us_per_pack"]
        m["serial.decode_us_per_pack"] = serial["decode_us_per_pack"]
        m["serial.bytes_per_pack"] = serial["bytes_per_pack"]
        m["obs.trace_dropped"] = sum(counter(s1["metrics"],
                                             "trace.dropped_events")
                                     for _, s1 in servers)

    m["aop.create_ms"] = t["create_ms"]
    m["sieve.divisions_per_sieve"] = t["divisions_per_op"]
    m["obs.trace_dropped"] += t["client_trace_dropped"]
    untraced = doc["window"]
    if workload == "rpc_small":
        spans = span_metrics(trace_dir, "net.call", "serve.filter")
        m["net.transport_us_p50"] = span_percentile(spans["transport"], 50,
                                                    -0.5)
        m["net.serve_us_p50"] = span_percentile(spans["serve"], 50, 0.0)
        m["sieve.process_us_p50"] = m["net.serve_us_p50"]
        m["strategies.packs_per_sieve"] = t["packs_per_op"]
        m["obs.tracing_overhead_frac"] = \
            untraced["ops_per_s"] / win["ops_per_s"] - 1.0
        wire = spans["client"]
        m["obs.unexplained_frac"] = (
            1.0 - statistics.mean(wire) / win["op_mean_us"] if wire else 1.0)
        return m

    # The sieve workloads.
    m["concurrency.spawned_per_sieve"] = counts["concurrency.spawned_per_sieve"]
    m["concurrency.dispatch_us_p50"] = prof_p50("dispatch")
    m["concurrency.monitor_wait_us_p50"] = max(
        0.0, prof_p50("monitor_outer") - prof_p50("monitor_inner"))
    m["concurrency.quiesce_ms"] = t["quiesce_ms"]
    m["aop.split_ms"] = t["split_ms"]
    packs = prof_calls("dispatch")
    m["aop.woven_calls_per_sieve"] = (prof_calls("calls") + packs) / ops
    m["strategies.packs_per_sieve"] = packs / ops
    m["obs.tracing_overhead_frac"] = \
        win["op_p50_us"] / untraced["op_p50_us"] - 1.0
    m["obs.unexplained_frac"] = t["unexplained_frac"]
    if workload == "sieve_tcp":
        spans = span_metrics(trace_dir, "net.one_way", "serve.process")
        m["net.transport_us_p50"] = span_percentile(spans["transport"], 50,
                                                    -0.5)
        m["net.serve_us_p50"] = span_percentile(spans["serve"], 50, 0.0)
        m["sieve.process_us_p50"] = m["net.serve_us_p50"]
        m["net.oneway_us_p50"] = prof_p50("oneway")
    else:
        m["sieve.process_us_p50"] = prof_p50("handler")
    return m


# ---- output ----------------------------------------------------------------

def print_table(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print("  %-*s %14.6g %-6s %s" % (width, name, value, unit, note))


def merge_trace(trace_dir, out_path):
    tool = os.path.join(ROOT, "tools", "merge_traces.py")
    files = [os.path.join(trace_dir, "client.json")] + sorted(
        os.path.join(trace_dir, n) for n in os.listdir(trace_dir)
        if n.startswith("server-"))
    if not os.path.exists(tool):
        return "not merged (tools/merge_traces.py missing)"
    rc = subprocess.call([sys.executable, tool] + files + ["-o", out_path],
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return out_path if rc == 0 else "merge failed (exit %d)" % rc


def run(args):
    bench = load_benchmark()
    started = time.monotonic()
    perfbench, server = build()
    results = os.path.join(build_dir(), "perfbench-results")
    trace_dir = os.path.join(results, "trace-%s" % args.workload)
    os.makedirs(trace_dir, exist_ok=True)
    for name in os.listdir(trace_dir):
        os.remove(os.path.join(trace_dir, name))
    out = os.path.join(results, "last-%s.json" % args.workload)
    if os.path.exists(out):
        os.remove(out)
    cmd = [perfbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", server, "--out", out, "--trace-dir", trace_dir]
    # A first run may spend most of its time building; the measuring
    # itself gets at least RUN_FLOOR_S.
    budget = max(RUN_FLOOR_S, RUN_DEADLINE_S - (time.monotonic() - started))
    # Its own session, so a timeout takes the sieve_servers down with it.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = child.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("%s did not finish within %.0f s" % (args.workload, budget))
    host = {
        "nproc": os.cpu_count(),
        "build_type": "Release",
        "compiler": None,
        "commit": git_commit(),
        "machine": platform.machine(),
        "link": "loopback, not a real link",
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host}
    if rc == 3:
        record["skipped"] = "loopback TCP unavailable"
        append_record(results, record)
        fail("SKIPPED %s: loopback TCP unavailable (recorded as skipped)" %
             args.workload, 3)
    if rc not in (0, 1):
        fail("%s exited with %d" % (args.workload, rc))
    try:
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail("%s produced no result (exit %d): %s" % (args.workload, rc, e))
    if doc.get("build_type") != "Release":
        fail("refusing to report from a %r build" % doc.get("build_type"))
    host["compiler"] = doc["compiler"]
    host["nproc"] = doc["nproc"]
    attempted, failed = int(doc["attempted"]), int(doc["failed"])
    record.update(attempted=attempted, failed=failed)
    print("host: nproc=%s build=Release compiler=%s commit=%s link=%s" %
          (host["nproc"], host["compiler"], host["commit"], host["link"]))

    if rc != 0 or failed:
        # A wrong answer voids the run: no timings are reported.
        for message in doc.get("failures", []):
            print("FAILED: " + message, file=sys.stderr)
        record["correct"] = False
        append_record(results, record)
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": max(1, failed), "metrics": {}}))
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer(doc, trace_dir) if args.trace else end_to_end(doc)
    if args.trace and values["obs.trace_dropped"]:
        fail("the trace rings dropped %d events; the traced run does not "
             "count" % values["obs.trace_dropped"])
    metrics = {}
    rows = []
    for spec in bench[section]:
        value = float(values[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        rows.append((spec["name"], value, spec["unit"],
                     MOVES.get(spec["name"], "")))
    w = doc["traced"]["window"] if args.trace else doc["window"]
    print("%s: %d ops in %.2f s, failed_frac %.3g (%d of %d attempted), "
          "tail = p%d" % (args.workload, w["ops"], w["seconds"],
                          failed / max(1, attempted), failed, attempted,
                          w["tail_pct"]))
    if args.trace:
        merged = merge_trace(trace_dir, os.path.join(
            results, "trace-%s-merged.json" % args.workload))
        print_table("layer table (traced run; moves = end-to-end metric "
                    "it should move):", rows)
        print("merged Chrome trace: %s" % merged)
    else:
        print_table("end-to-end metrics (untraced):", rows)
    record.update(correct=True, metrics=metrics)
    append_record(results, record)
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def append_record(results, record):
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "results.jsonl"), "a",
              encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")


# ---- compare mode ----------------------------------------------------------

def load_records(path):
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                if r.get("trace") == 0 and r.get("correct"):
                    records.append(r)
    return records


def spread(values):
    """Quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def compare(paths):
    bench = load_benchmark()
    sets = [load_records(p) for p in paths]
    workloads = [w for w in WORKLOADS
                 if all(any(r["workload"] == w for r in s) for s in sets)]
    if not workloads:
        fail("no workload has correct untraced records in both sets")
    all_agree = True
    print("%-11s %-14s %12s %12s %8s %8s %8s %6s  %s" % (
        "workload", "metric", "median A", "median B", "spread A", "spread B",
        "change", "bound", "verdict"))
    for w in workloads:
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            a = [r["metrics"][name]["value"] for r in sets[0]
                 if r["workload"] == w]
            b = [r["metrics"][name]["value"] for r in sets[1]
                 if r["workload"] == w]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if spec["better"] == "lower" else -change
            agree = worse <= bound
            all_agree &= agree
            print("%-11s %-14s %12.6g %12.6g %8.3f %8.3f %+8.3f %6.2f  %s "
                  "(n=%d/%d)" % (w, name, ma, mb, spread(a), spread(b),
                                 change, bound,
                                 "agree" if agree else "WORSE", len(a),
                                 len(b)))
    return 0 if all_agree else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("sets", nargs=2, metavar="RESULTS.jsonl")
        return compare(ap.parse_args(sys.argv[2:]).sets)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
