#!/usr/bin/env bash
# Run the stress suite (`ctest -L stress`) plus the cache suite (`-L
# cache`) and the real-TCP transport suite (`-L net` — which includes
# the event-driven reactor tests: pipelining, backpressure, slow-reader
# eviction and mode-parity, all prime tsan material since the reactor's
# threads pass each connection from one to the next while sweeps and the
# drain read its state; the stress label adds seeded pipelining and
# idle-sweep runs against that hand-off)
# and the scheduler suite (`-L scheduler` — online pool resize racing
# posts, steals and parallel_for; a retirement that loses or double-runs
# a task trips tsan and the exactly-once asserts)
# under ThreadSanitizer and AddressSanitizer, and the analysis suite
# (`-L analysis` — the weave-plan verifier, the effects race passes and
# the apar-analyze gates) under AddressSanitizer. The ubsan leg runs the
# whole tier-1 suite under UndefinedBehaviorSanitizer: it runs nearly as
# fast as a plain build, and the wire decoders, the serial archive and
# the sieve kernel's wrapping arithmetic all run in it. Any
# sanitizer report fails the run: halt_on_error (and, under ubsan,
# -fno-sanitize-recover) turns the first finding into a nonzero test exit.
#
# Usage:
#   tools/run_stress.sh              # tsan + asan
#   tools/run_stress.sh tsan         # one sanitizer only
#   tools/run_stress.sh tsan asan ubsan
#   APAR_STRESS_SEED=123 tools/run_stress.sh tsan   # replay a seed
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(tsan asan)
fi

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

for preset in "${presets[@]}"; do
  case "$preset" in
    tsan|asan|ubsan) ;;
    *) echo "unknown preset '$preset' (expected tsan, asan or ubsan)" >&2
       exit 2 ;;
  esac
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$(nproc)"
  if [ "$preset" = "ubsan" ]; then
    echo "=== [$preset] ctest (whole suite) ==="
    ctest --test-dir "build-$preset" --output-on-failure -j "$(nproc)"
    continue
  fi
  # The analyzers allocate aggressively (registries, reports, JSON) but
  # are single-threaded: asan is the interesting sanitizer, and skipping
  # them under tsan keeps that (much slower) leg focused on real
  # concurrency.
  labels='stress|cache|net|scheduler'
  if [ "$preset" = "asan" ]; then
    labels='stress|cache|net|scheduler|analysis'
  fi
  echo "=== [$preset] ctest -L '$labels' ==="
  ctest --test-dir "build-$preset" -L "$labels" --output-on-failure -j 2
done

echo "stress + cache + net (+ analysis under asan, everything under ubsan)" \
     "clean under: ${presets[*]}"
