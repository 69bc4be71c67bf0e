#!/usr/bin/env python3
"""Validate BENCH_net.json (produced by tools/run_bench.py --net).

Structural checks always run: every scenario must carry the full latency
summary with ordered percentiles and a sane request accounting, a
closed-loop row taken over several server starts must carry each start's
throughput and p50 with quartiles that bracket its median, and a
full-mode document's comparison block must carry both modes' closed-loop
throughput and p50 at the same client count, with their quartiles. With
--require-ratio R the acceptance gate is enforced too: the reactor
scenario must serve at least R times thread-per-connection's sustainable
connection count (its worker limit) at equal-or-better p99 under the same
offered load, with zero reactor-side errors.

    tools/check_net_bench.py BENCH_net.json               # schema only
    tools/check_net_bench.py BENCH_net.json --require-ratio 4

Exit status: 0 valid (or an explicit loopback-skip marker), 1 invalid.
"""

import argparse
import json
import sys

PERCENTILE_KEYS = ("p50", "p95", "p99", "p999", "max")
REQUIRED_KEYS = ("mode", "clients", "requests", "ok", "errors",
                 "throughput_rps", "latency_us")


def fail(message):
    print(f"check_net_bench: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_scenario(name, row):
    for key in REQUIRED_KEYS:
        if key not in row:
            fail(f"scenario {name}: missing key '{key}'")
    lat = row["latency_us"]
    for key in PERCENTILE_KEYS + ("mean",):
        if key not in lat:
            fail(f"scenario {name}: latency_us missing '{key}'")
        if not isinstance(lat[key], (int, float)) or lat[key] < 0:
            fail(f"scenario {name}: latency_us.{key} = {lat[key]!r}")
    for lo, hi in zip(PERCENTILE_KEYS, PERCENTILE_KEYS[1:]):
        # Log-linear buckets quantize, so equality is fine; inversion is not.
        if lat[lo] > lat[hi] * 1.001:
            fail(f"scenario {name}: {lo} ({lat[lo]}) > {hi} ({lat[hi]})")
    if row["requests"] != row["ok"] + row["errors"]:
        fail(f"scenario {name}: requests {row['requests']} != "
             f"ok {row['ok']} + errors {row['errors']}")
    if row["requests"] <= 0:
        fail(f"scenario {name}: no requests recorded")
    if row["ok"] > 0 and row["throughput_rps"] <= 0:
        fail(f"scenario {name}: ok > 0 but throughput_rps <= 0")
    if "starts" in row:
        check_starts(name, row)


def check_starts(name, row):
    """A row that is the median of several server starts."""
    starts = row["starts"]
    if not isinstance(starts, int) or starts < 1:
        fail(f"scenario {name}: starts = {starts!r}")
    runs = row.get("runs")
    if not isinstance(runs, list) or len(runs) != starts:
        fail(f"scenario {name}: runs must list each of its {starts} starts")
    for field, median in (("throughput_rps", row["throughput_rps"]),
                          ("p50_us", row["latency_us"]["p50"])):
        values = sorted(r.get(field) for r in runs)
        if any(not isinstance(v, (int, float)) or v < 0 for v in values):
            fail(f"scenario {name}: runs carry a bad {field}: {values!r}")
        if values[(starts - 1) // 2] > median * 1.001 + 1e-9 or \
                values[starts // 2] < median * 0.999 - 1e-9:
            fail(f"scenario {name}: {field} {median} is not the median of "
                 f"its starts {values!r}")
        quart = row.get(f"{field}_quartiles")
        if (not isinstance(quart, list) or len(quart) != 2 or
                not values[0] <= quart[0] <= median * 1.001 + 1e-9 or
                not median * 0.999 - 1e-9 <= quart[1] <= values[-1]):
            fail(f"scenario {name}: {field}_quartiles {quart!r} do not "
                 f"bracket the median {median} within {values!r}")


CLOSED_LOOP_KEYS = ("thread_closed_rps", "thread_closed_p50_us",
                    "reactor_closed_rps", "reactor_closed_p50_us")


def check_comparison(doc):
    comparison = doc["comparison"]
    clients = comparison.get("closed_loop_clients")
    if not isinstance(clients, int) or clients <= 0:
        fail(f"comparison: closed_loop_clients = {clients!r}")
    for key in CLOSED_LOOP_KEYS:
        value = comparison.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(f"comparison: {key} = {value!r}")
    workers = doc.get("workers")
    for mode in ("thread", "reactor"):
        name = f"{mode}_w{workers}_c{clients}"
        row = doc["scenarios"].get(name)
        if row is None:
            fail(f"comparison: closed-loop scenario '{name}' missing")
        if row["mode"] != "closed" or row["clients"] != clients:
            fail(f"comparison: scenario '{name}' is not a closed loop of "
                 f"{clients} clients")
        if (row["throughput_rps"] != comparison[f"{mode}_closed_rps"] or
                row["latency_us"]["p50"] !=
                comparison[f"{mode}_closed_p50_us"]):
            fail(f"comparison: {mode} closed-loop fields disagree with "
                 f"scenario '{name}'")
        if "starts" not in row:
            fail(f"comparison: closed-loop scenario '{name}' is one run, "
                 f"not the median of several server starts")
        if comparison.get("closed_loop_starts") != row["starts"]:
            fail(f"comparison: closed_loop_starts "
                 f"{comparison.get('closed_loop_starts')!r} != "
                 f"{row['starts']} starts of '{name}'")
        for field, key in (("throughput_rps", "rps"), ("p50_us", "p50_us")):
            if (comparison.get(f"{mode}_closed_{key}_quartiles") !=
                    row[f"{field}_quartiles"]):
                fail(f"comparison: {mode}_closed_{key}_quartiles disagree "
                     f"with scenario '{name}'")


def check_ratio(doc, require_ratio):
    comparison = doc.get("comparison")
    if not comparison:
        fail("--require-ratio needs the 'comparison' block "
             "(full-mode run_bench.py --net, not --quick)")
    ratio = comparison["connection_ratio"]
    if ratio < require_ratio:
        fail(f"connection ratio {ratio:.1f} < required {require_ratio}")
    thread_p99 = comparison["thread_p99_us_at_reactor_load"]
    reactor_p99 = comparison["reactor_p99_us"]
    if reactor_p99 > thread_p99:
        fail(f"reactor p99 {reactor_p99}us worse than thread-per-connection "
             f"{thread_p99}us at the same offered load")
    if comparison["reactor_errors"] != 0:
        fail(f"reactor dropped {comparison['reactor_errors']} requests "
             f"while serving {comparison['reactor_connections']} connections")
    print(f"check_net_bench: reactor held {comparison['reactor_connections']} "
          f"connections ({ratio:.1f}x thread mode's "
          f"{comparison['thread_sustainable_connections']}) at p99 "
          f"{reactor_p99}us vs {thread_p99}us")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="BENCH_net.json to validate")
    parser.add_argument("--require-ratio", type=float, default=0.0,
                        help="minimum reactor/thread connection ratio at "
                             "equal-or-better p99 (0 = schema checks only)")
    args = parser.parse_args(argv)

    try:
        with open(args.path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.path}: {e}")

    if "skipped" in doc:
        print(f"check_net_bench: skipped ({doc['skipped']})")
        return
    scenarios = doc.get("scenarios")
    if not scenarios:
        fail("no scenarios in document")
    for name, row in scenarios.items():
        check_scenario(name, row)
    if "comparison" in doc:
        check_comparison(doc)
    if args.require_ratio > 0:
        check_ratio(doc, args.require_ratio)
    print(f"check_net_bench: {args.path} OK ({len(scenarios)} scenarios)")


if __name__ == "__main__":
    main(sys.argv[1:])
