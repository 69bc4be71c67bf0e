#!/usr/bin/env python3
"""Run a google-benchmark binary and distill median-of-N timings to JSON.

Default target is the scheduler ablation (bench/scheduler_scaling):

    tools/run_bench.py --binary build/bench/scheduler_scaling \
        --out BENCH_scheduler.json --repetitions 5

The binary is run once with --benchmark_repetitions=N and JSON output;
per-benchmark medians (real ns/op and items/s) are computed here rather
than trusting the binary's aggregate rows, so partial runs and filters
behave predictably. The output records enough machine context (cores,
load, date from the benchmark's own header) to keep numbers honest when
they are quoted in EXPERIMENTS.md, and at its top level, as --net does,
the host's core count (`nproc`) and the build type of the binary's build
directory (`build_type`).

With --net the flow is different: instead of a google-benchmark binary it
drives examples/sieve_server + tools/loadgen and writes BENCH_net.json:

    tools/run_bench.py --net --build build --out BENCH_net.json

Scenarios (full mode; --quick runs one small closed-loop round for CI):
  closed_wW_cW    closed loop, one client per worker: peak throughput and
                  service latency. The row is the median of 5 server
                  starts (CLOSED_STARTS), with each start's numbers and
                  the quartiles recorded beside it: one short run can land
                  in either mode of a bimodal host.
  open_wW_cN      open loop at a fixed rate over N = 4x workers
                  connections (coordinated-omission-corrected
                  percentiles): every connection must be served.
tools/check_net_bench.py validates the document and, with
--require-ratio R, gates on the open-loop row having offered at least R x
workers connections and completed every request it issued. The document
records the host's core count and the build type of the binaries it ran.

With --adapt it drives bench/adapt_scaling — the phase-shifting autonomic
workload — and writes BENCH_adapt.json:

    tools/run_bench.py --adapt --build build --out BENCH_adapt.json

The binary sweeps the static (workers, grain) corners plus the adaptive
configuration over alternating sieve/service/mandel phases and emits the
recovery table tools/check_adapt_bench.py gates on (--quick shrinks the
phases for CI). Full mode appends an informational closed-loop loadgen
round — the net.rtt_us source the routing plane consumes — skipped with a
marker where the sandbox forbids loopback sockets.

Exit status is nonzero when the benchmark binary fails or produces no
usable entries, so CI can gate on it.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# --net: server starts per closed-loop row; the row is their median.
CLOSED_STARTS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", default="build/bench/scheduler_scaling",
                        help="google-benchmark binary to run")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_scheduler.json, "
                             "or BENCH_net.json with --net)")
    parser.add_argument("--repetitions", type=int, default=5,
                        help="repetitions per benchmark (median is reported)")
    parser.add_argument("--min-time", type=float, default=0.2,
                        help="per-repetition minimum running time, seconds")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter regex (empty: all)")
    parser.add_argument("--quick", action="store_true",
                        help="1 repetition, 0.05s min time: CI smoke mode")
    parser.add_argument("--net", action="store_true",
                        help="run the sieve_server/loadgen latency scenarios "
                             "instead of a google-benchmark binary")
    parser.add_argument("--adapt", action="store_true",
                        help="run bench/adapt_scaling (phase-shifting "
                             "autonomic workload) instead of a "
                             "google-benchmark binary")
    parser.add_argument("--build", default="build",
                        help="[--net/--adapt] build directory with the "
                             "binaries")
    parser.add_argument("--workers", type=int, default=8,
                        help="[--net] server workers W")
    parser.add_argument("--rate", type=float, default=3000.0,
                        help="[--net] open-loop aggregate requests/second")
    parser.add_argument("--measure-seconds", type=float, default=4.0,
                        help="[--net] open-loop measurement window")
    return parser.parse_args(argv)


def run_benchmark(args):
    repetitions = 1 if args.quick else args.repetitions
    min_time = 0.05 if args.quick else args.min_time
    cmd = [
        args.binary,
        f"--benchmark_repetitions={repetitions}",
        f"--benchmark_min_time={min_time}",
        "--benchmark_report_aggregates_only=false",
        "--benchmark_format=json",
    ]
    if args.filter:
        cmd.append(f"--benchmark_filter={args.filter}")
    print("+ " + " ".join(cmd), file=sys.stderr)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark binary failed ({proc.returncode})")
    return json.loads(proc.stdout), repetitions


def to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return value * scale[unit]


def distill(doc, repetitions):
    """Group raw iteration rows by benchmark name; median each metric."""
    samples = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue  # skip the binary's own aggregate rows
        name = row["name"]
        entry = samples.setdefault(
            name, {"real_ns": [], "cpu_ns": [], "items_per_second": []})
        entry["real_ns"].append(to_ns(row["real_time"], row["time_unit"]))
        entry["cpu_ns"].append(to_ns(row["cpu_time"], row["time_unit"]))
        if "items_per_second" in row:
            entry["items_per_second"].append(row["items_per_second"])

    results = {}
    for name, entry in sorted(samples.items()):
        results[name] = {
            "median_real_ns": statistics.median(entry["real_ns"]),
            "median_cpu_ns": statistics.median(entry["cpu_ns"]),
            "repetitions": len(entry["real_ns"]),
        }
        if entry["items_per_second"]:
            results[name]["median_items_per_second"] = statistics.median(
                entry["items_per_second"])
    if not results:
        raise SystemExit("no benchmark entries produced (bad --filter?)")
    return {
        "context": doc.get("context", {}),
        "requested_repetitions": repetitions,
        "benchmarks": results,
    }


def summarize(results):
    """Print speedups where benchmark pairs line up: central-queue vs
    work-stealing (scheduler ablation) and recompute vs cached hit
    (cache_costs)."""
    for name in sorted(results["benchmarks"]):
        if "Recompute" not in name:
            continue
        hit_name = name.replace("Recompute", "CachedHit")
        if hit_name not in results["benchmarks"]:
            continue
        recompute = results["benchmarks"][name]["median_real_ns"]
        hit = results["benchmarks"][hit_name]["median_real_ns"]
        print(f"{hit_name}: {hit:12.0f} ns  vs  {name}: {recompute:12.0f} ns"
              f"  -> hit speedup {recompute / hit:5.2f}x")
    pairs = []
    for name in results["benchmarks"]:
        if name.startswith("BM_WorkStealing_"):
            continue
        if not name.startswith("BM_CentralQueue_"):
            continue
        shape_arg = name[len("BM_CentralQueue_"):]
        for ws_shape in ("ParallelFor", "ExternalPost", "RecursiveFan"):
            cq_shape = "ChunkedFor" if ws_shape == "ParallelFor" else ws_shape
            if not shape_arg.startswith(cq_shape):
                continue
            suffix = shape_arg[len(cq_shape):]
            ws_name = f"BM_WorkStealing_{ws_shape}{suffix}"
            if ws_name in results["benchmarks"]:
                pairs.append((name, ws_name))
    for cq_name, ws_name in pairs:
        cq = results["benchmarks"][cq_name]["median_real_ns"]
        ws = results["benchmarks"][ws_name]["median_real_ns"]
        print(f"{ws_name}: {ws:12.0f} ns  vs  {cq_name}: {cq:12.0f} ns  "
              f"-> speedup {cq / ws:5.2f}x")


# --- --net: sieve_server + loadgen latency scenarios -----------------------

class NetServer:
    """examples/sieve_server as a context manager: starts the process,
    waits for the port file, SIGTERMs on exit."""

    def __init__(self, build, workers):
        self.binary = os.path.join(build, "examples", "sieve_server")
        self.workers = workers
        self.proc = None
        self.port = None

    def __enter__(self):
        port_file = tempfile.NamedTemporaryFile(
            prefix="apar_port_", delete=False)
        port_file.close()
        os.unlink(port_file.name)
        cmd = [self.binary, "--workers", str(self.workers),
               "--port-file", port_file.name, "--run-seconds", "300"]
        print("+ " + " ".join(cmd), file=sys.stderr)
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        deadline = time.time() + 10.0
        while time.time() < deadline:
            rc = self.proc.poll()
            if rc is not None:
                # rc 2 = loopback unavailable in this sandbox
                raise LoopbackUnavailable() if rc == 2 else SystemExit(
                    f"sieve_server exited early ({rc})")
            if os.path.exists(port_file.name):
                with open(port_file.name) as fh:
                    text = fh.read().strip()
                if text:
                    self.port = int(text)
                    os.unlink(port_file.name)
                    return self
            time.sleep(0.05)
        raise SystemExit("sieve_server did not report a port within 10s")

    def __exit__(self, *exc):
        if self.proc and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        return False


class LoopbackUnavailable(Exception):
    pass


def run_loadgen(build, port, label, extra):
    dump = tempfile.NamedTemporaryFile(prefix="apar_lg_", suffix=".json",
                                       delete=False)
    dump.close()
    cmd = [os.path.join(build, "tools", "loadgen"),
           "--port", str(port), "--label", label, "--dump", dump.name] + extra
    print("+ " + " ".join(cmd), file=sys.stderr)
    proc = subprocess.run(cmd)
    if proc.returncode not in (0, 1):  # 1 = zero successes, still a datapoint
        raise SystemExit(f"loadgen failed ({proc.returncode})")
    with open(dump.name) as fh:
        result = json.load(fh)
    os.unlink(dump.name)
    return result


def build_type(build):
    """CMAKE_BUILD_TYPE of a build directory ("" when unset). The cache may
    sit one level up, as in perfbench's .bench_build/aspectpar."""
    for where in (build, os.path.dirname(os.path.abspath(build))):
        try:
            with open(os.path.join(where, "CMakeCache.txt")) as fh:
                for line in fh:
                    if line.startswith("CMAKE_BUILD_TYPE:"):
                        return line.split("=", 1)[1].strip()
        except OSError:
            continue
    return ""


def quartiles(values):
    """(q1, median, q3) of a list, inclusive method (actual samples for 5)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def median_row(label, runs):
    """One closed-loop row from several server starts: request accounting
    summed, throughput and every latency percentile the median over the
    starts (medians of pointwise-ordered percentiles stay ordered), each
    start's throughput and p50, and their quartiles."""
    row = dict(runs[0])
    row["label"] = label
    for key in ("requests", "ok", "errors"):
        row[key] = sum(r[key] for r in runs)
    row["elapsed_s"] = statistics.median(r["elapsed_s"] for r in runs)
    row["throughput_rps"] = statistics.median(r["throughput_rps"]
                                              for r in runs)
    row["latency_us"] = {
        key: statistics.median(r["latency_us"][key] for r in runs)
        for key in runs[0]["latency_us"]}
    rps = [r["throughput_rps"] for r in runs]
    p50 = [r["latency_us"]["p50"] for r in runs]
    row["starts"] = len(runs)
    row["runs"] = [{"throughput_rps": a, "p50_us": b}
                   for a, b in zip(rps, p50)]
    q1, _, q3 = quartiles(rps)
    row["throughput_rps_quartiles"] = [q1, q3]
    q1, _, q3 = quartiles(p50)
    row["p50_us_quartiles"] = [q1, q3]
    return row


def run_net(args):
    workers = args.workers
    connections = 4 * workers
    scenarios = {}
    try:
        if args.quick:
            # CI smoke: one small closed-loop round, just enough to
            # validate the whole pipeline end to end.
            name = "closed_w2_c4_quick"
            with NetServer(args.build, 2) as server:
                scenarios[name] = run_loadgen(
                    args.build, server.port, name,
                    ["--mode", "closed", "--clients", "4",
                     "--requests", "200", "--warmup", "50"])
        else:
            name = f"closed_w{workers}_c{workers}"
            runs = []
            for _ in range(CLOSED_STARTS):
                with NetServer(args.build, workers) as server:
                    runs.append(run_loadgen(
                        args.build, server.port, name,
                        ["--mode", "closed", "--clients", str(workers),
                         "--requests", "2000", "--warmup", "200"]))
            scenarios[name] = median_row(name, runs)
            name = f"open_w{workers}_c{connections}"
            with NetServer(args.build, workers) as server:
                scenarios[name] = run_loadgen(
                    args.build, server.port, name,
                    ["--mode", "open", "--clients", str(connections),
                     "--rate", str(args.rate),
                     "--measure-seconds", str(args.measure_seconds),
                     "--warmup-seconds", "1", "--timeout-ms", "1000"])
    except LoopbackUnavailable:
        print("loopback TCP unavailable; writing a skip marker",
              file=sys.stderr)
        with open(args.out, "w") as fh:
            json.dump({"skipped": "loopback TCP unavailable"}, fh, indent=2)
            fh.write("\n")
        return

    doc = {"nproc": os.cpu_count(), "build_type": build_type(args.build),
           "workers": workers, "scenarios": scenarios}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} ({len(scenarios)} scenarios)")
    for name, row in scenarios.items():
        lat = row["latency_us"]
        spread = ""
        if "starts" in row:
            q = row["throughput_rps_quartiles"]
            spread = (f" (median of {row['starts']} starts, rps quartiles "
                      f"{q[0]:.0f}-{q[1]:.0f})")
        print(f"  {name}: {row['ok']}/{row['requests']} ok, "
              f"{row['throughput_rps']:.0f} rps, "
              f"p50 {lat['p50']:.0f}us p99 {lat['p99']:.0f}us{spread}")


# --- --adapt: phase-shifting autonomic workload ----------------------------

def run_adapt(args):
    binary = os.path.join(args.build, "bench", "adapt_scaling")
    cmd = [binary, "--out", args.out]
    if args.quick:
        cmd += ["--phase-seconds", "2", "--reps", "1"]
    print("+ " + " ".join(cmd), file=sys.stderr)
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        raise SystemExit(f"adapt_scaling failed ({proc.returncode})")
    with open(args.out) as fh:
        doc = json.load(fh)

    if not args.quick:
        # Informational net leg: a closed-loop loadgen round against a
        # sieve_server records the net.rtt_us shape the controller's
        # routing plane consumes. Not part of the recovery gate.
        try:
            with NetServer(args.build, 2) as server:
                doc["net"] = run_loadgen(
                    args.build, server.port, "adapt_net",
                    ["--mode", "closed", "--clients", "4",
                     "--requests", "500", "--warmup", "50"])
        except LoopbackUnavailable:
            print("loopback TCP unavailable; net leg skipped",
                  file=sys.stderr)
            doc["net"] = {"skipped": "loopback TCP unavailable"}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    recovery = doc["recovery"]
    print(f"wrote {args.out} ({len(doc['configs'])} configs)")
    for name, r in sorted(recovery["min_recovery"].items()):
        print(f"  {name}: worst-phase recovery {r:.3f}")
    print(f"  adaptive {recovery['adaptive_min_recovery']:.3f} vs best "
          f"static {recovery['best_static_min_recovery']:.3f}")


def main(argv):
    args = parse_args(argv)
    if args.out is None:
        if args.net:
            args.out = "BENCH_net.json"
        elif args.adapt:
            args.out = "BENCH_adapt.json"
        else:
            args.out = "BENCH_scheduler.json"
    if args.net:
        run_net(args)
        return
    if args.adapt:
        run_adapt(args)
        return
    doc, repetitions = run_benchmark(args)
    results = {"nproc": os.cpu_count(),
               "build_type": build_type(os.path.dirname(args.binary)),
               **distill(doc, repetitions)}
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} ({len(results['benchmarks'])} benchmarks, "
          f"median of {repetitions})")
    summarize(results)


if __name__ == "__main__":
    main(sys.argv[1:])
