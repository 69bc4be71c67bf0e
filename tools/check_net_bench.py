#!/usr/bin/env python3
"""Validate BENCH_net.json (produced by tools/run_bench.py --net).

Structural checks always run: every scenario must carry the full latency
summary with ordered percentiles and a sane request accounting, and a
closed-loop row taken over several server starts must carry each start's
throughput and p50 with quartiles that bracket its median. With
--require-ratio R the acceptance gate is enforced too: the open-loop
scenario must have offered at least R times the server's `workers`
connections and completed every request it issued, with zero errors.
An open-loop row also carries loadgen's two diagnostics, lag_max_us and
missed_after_reply; a failed gate prints them, so it says whether the
generator (errors that fell due while the client held its latest reply)
or the server missed the slots. They explain a failure; they never
excuse one.

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
    if row["mode"] == "open":
        check_open(name, row)


def check_open(name, row):
    """loadgen's open-loop diagnostics: who missed the window-end slots."""
    lag = row.get("lag_max_us")
    if not isinstance(lag, (int, float)) or lag < 0:
        fail(f"scenario {name}: lag_max_us = {lag!r}")
    missed = row.get("missed_after_reply")
    if not isinstance(missed, int) or not 0 <= missed <= row["errors"]:
        fail(f"scenario {name}: missed_after_reply = {missed!r} with "
             f"{row['errors']} errors")


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


def check_ratio(doc, require_ratio):
    workers = doc.get("workers")
    if not isinstance(workers, int) or workers <= 0:
        fail(f"--require-ratio needs the server's workers, got {workers!r}")
    rows = [(name, row) for name, row in doc["scenarios"].items()
            if row["mode"] == "open"]
    if len(rows) != 1:
        fail(f"--require-ratio needs one open-loop scenario (full-mode "
             f"run_bench.py --net, not --quick), found {len(rows)}")
    name, row = rows[0]
    ratio = row["clients"] / workers
    if ratio < require_ratio:
        fail(f"scenario {name}: {row['clients']} connections are "
             f"{ratio:.1f}x the {workers} workers, below {require_ratio}x")
    if row["errors"] != 0 or row["ok"] != row["requests"]:
        fail(f"scenario {name}: {row['ok']} of {row['requests']} requests "
             f"completed, {row['errors']} errors, over {row['clients']} "
             f"connections; {row['missed_after_reply']} of the errors fell "
             f"due while the client held its latest reply (the generator "
             f"missed those), generator lag max {row['lag_max_us']}us")
    print(f"check_net_bench: {row['clients']} connections ({ratio:.1f}x "
          f"{workers} workers) completed all {row['requests']} requests, "
          f"p99 {row['latency_us']['p99']}us")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="BENCH_net.json to validate")
    parser.add_argument("--require-ratio", type=float, default=0.0,
                        help="minimum open-loop connections per worker, "
                             "all requests completed (0 = schema checks "
                             "only)")
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
    if args.require_ratio > 0:
        check_ratio(doc, args.require_ratio)
    print(f"check_net_bench: {args.path} OK ({len(scenarios)} scenarios)")


if __name__ == "__main__":
    main(sys.argv[1:])
