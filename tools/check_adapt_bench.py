#!/usr/bin/env python3
"""Validate BENCH_adapt.json (produced by tools/run_bench.py --adapt).

Structural checks always run: the file must record the host's core count
(`nproc`) and the build type it was taken from (`build_type`), every
configuration must report every phase with a positive measured duration
and consistent throughput, and the recovery table must agree with the
per-phase numbers it distills.
With --require-recovery R the acceptance gate is enforced too, both
halves of it:

  * the adaptive configuration recovers at least R of the best static
    configuration's throughput in EVERY phase (its worst-phase recovery
    is >= R), and
  * no single static configuration does the same — the phase-shifting
    workload genuinely has no one-size static answer, otherwise
    "adaptive keeps up" would be vacuous.

    tools/check_adapt_bench.py BENCH_adapt.json                 # schema only
    tools/check_adapt_bench.py BENCH_adapt.json --require-recovery 0.8

Exit status: 0 valid, 1 invalid.
"""

import argparse
import json
import sys

RELATIVE_TOLERANCE = 1e-6


def fail(message):
    print(f"check_adapt_bench: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_config(name, row, phases):
    reported = row.get("phases")
    if not isinstance(reported, dict):
        fail(f"config {name}: missing 'phases'")
    for phase in phases:
        if phase not in reported:
            fail(f"config {name}: missing phase '{phase}'")
        stats = reported[phase]
        for key in ("items", "seconds", "throughput_items_per_s"):
            if not isinstance(stats.get(key), (int, float)):
                fail(f"config {name}/{phase}: bad '{key}' "
                     f"({stats.get(key)!r})")
        if stats["seconds"] <= 0 or stats["items"] <= 0:
            fail(f"config {name}/{phase}: empty measurement")
        expected = stats["items"] / stats["seconds"]
        if abs(stats["throughput_items_per_s"] - expected) > \
                expected * 1e-3 + 1e-9:
            fail(f"config {name}/{phase}: throughput "
                 f"{stats['throughput_items_per_s']} inconsistent with "
                 f"items/seconds ({expected:.3f})")


def recompute_recovery(doc, phases):
    """Re-derive the recovery table from the raw per-phase numbers; the
    committed distillation must match what it claims to summarize."""
    configs = doc["configs"]
    best = {}
    for phase in phases:
        best[phase] = max(
            (name for name in configs if name != "adaptive"),
            key=lambda n: configs[n]["phases"][phase]
            ["throughput_items_per_s"])
    min_recovery = {}
    for name, row in configs.items():
        min_recovery[name] = min(
            row["phases"][p]["throughput_items_per_s"] /
            configs[best[p]]["phases"][p]["throughput_items_per_s"]
            for p in phases)
    return best, min_recovery


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="BENCH_adapt.json to validate")
    parser.add_argument("--require-recovery", type=float, default=0.0,
                        help="minimum adaptive worst-phase recovery; also "
                             "requires every static config to fall short of "
                             "it (0 = schema checks only)")
    args = parser.parse_args(argv)

    try:
        with open(args.path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.path}: {e}")

    nproc = doc.get("nproc")
    if not isinstance(nproc, int) or isinstance(nproc, bool) or nproc < 1:
        fail(f"bad or missing 'nproc' ({nproc!r}): where was this taken?")
    if not isinstance(doc.get("build_type"), str):
        fail(f"bad or missing 'build_type' ({doc.get('build_type')!r})")

    configs = doc.get("configs")
    recovery = doc.get("recovery")
    if not configs or not recovery:
        fail("missing 'configs' or 'recovery' block")
    if "adaptive" not in configs:
        fail("no 'adaptive' configuration")
    statics = [n for n in configs if n != "adaptive"]
    if len(statics) < 2:
        fail(f"need at least two static configurations, got {statics}")

    phases = sorted(configs["adaptive"]["phases"])
    if not phases:
        fail("adaptive configuration reports no phases")
    for name, row in configs.items():
        check_config(name, row, phases)

    best, min_recovery = recompute_recovery(doc, phases)
    claimed = recovery.get("min_recovery", {})
    for name, value in min_recovery.items():
        if name not in claimed:
            fail(f"recovery.min_recovery missing '{name}'")
        if abs(claimed[name] - value) > max(1e-3, value * 1e-2):
            fail(f"recovery.min_recovery[{name}] = {claimed[name]} "
                 f"disagrees with recomputed {value:.4f}")
    adaptive = min_recovery["adaptive"]
    best_static = max(min_recovery[n] for n in statics)

    for phase in phases:
        top = configs[best[phase]]["phases"][phase]["throughput_items_per_s"]
        ours = configs["adaptive"]["phases"][phase]["throughput_items_per_s"]
        print(f"check_adapt_bench: {phase}: best static {best[phase]} "
              f"at {top:.0f} items/s, adaptive {ours:.0f} "
              f"({ours / top:.3f})")

    if args.require_recovery > 0:
        if adaptive < args.require_recovery:
            fail(f"adaptive worst-phase recovery {adaptive:.3f} < required "
                 f"{args.require_recovery}")
        if best_static >= args.require_recovery:
            fail(f"static config reaches {best_static:.3f} across all "
                 f"phases; the workload no longer needs adaptation")
        print(f"check_adapt_bench: adaptive recovers {adaptive:.3f} in its "
              f"worst phase (gate {args.require_recovery}); best static "
              f"manages only {best_static:.3f}")
    print(f"check_adapt_bench: {args.path} OK "
          f"({len(configs)} configs, {len(phases)} phases, "
          f"nproc {nproc}, build {doc['build_type'] or 'unset'})")


if __name__ == "__main__":
    main(sys.argv[1:])
