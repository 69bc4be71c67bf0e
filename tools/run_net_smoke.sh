#!/usr/bin/env bash
# Two-process sieve smoke over real TCP (docs/networking.md): start a
# sieve_server, run sieve_client against it in BOTH wire formats, then
# shut the server down cleanly. The client verifies its own prime count
# against the reference sieve and exits nonzero on a mismatch, so this
# script passing means bytes genuinely crossed a process boundary and
# came back right.
#
# A second, traced round (docs/observability.md) then reruns the pair with
# APAR_TRACE_OUT set on both halves, polls the server's kTelemetry op with
# apar_top.py, merges the two per-process trace dumps with merge_traces.py,
# and gates on check_obs.py: the merged trace must show every server-side
# serve.* span parented to a span in the CLIENT process — distributed
# tracing, asserted from outside the binaries, even though each request
# runs on whichever server thread read it.
#
# Usage:
#   tools/run_net_smoke.sh [build-dir]     # default: build
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SERVER="$BUILD/examples/sieve_server"
CLIENT="$BUILD/examples/sieve_client"
if [ ! -x "$SERVER" ] || [ ! -x "$CLIENT" ]; then
  echo "run_net_smoke: build the examples first ($SERVER, $CLIENT)" >&2
  exit 2
fi

PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
"$SERVER" --port-file "$PORT_FILE" --run-seconds 120 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 200); do
  [ -s "$PORT_FILE" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    # The server self-skips (exit 2) where the sandbox forbids sockets.
    wait "$SERVER_PID" && rc=0 || rc=$?
    if [ "$rc" -eq 2 ]; then
      echo "run_net_smoke: loopback TCP unavailable — skipping"
      trap - EXIT
      exit 0
    fi
    echo "run_net_smoke: server died before publishing a port (rc=$rc)" >&2
    exit 1
  fi
  sleep 0.05
done
[ -s "$PORT_FILE" ] || { echo "run_net_smoke: no port published" >&2; exit 1; }
PORT="$(cat "$PORT_FILE")"

for fmt in compact verbose; do
  echo "=== sieve over tcp://127.0.0.1:$PORT ($fmt) ==="
  "$CLIENT" --port "$PORT" --format "$fmt" --max 100000 --filters 3
done

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
trap - EXIT
rm -f "$PORT_FILE"
echo "net smoke clean: both formats, two processes, one socket"

# ---- traced round: distributed tracing + live telemetry ----
PY=python3
command -v "$PY" >/dev/null 2>&1 || { echo "run_net_smoke: python3 missing — skipping traced round"; exit 0; }

TRACE_DIR="$(mktemp -d)"
rm -f "$PORT_FILE"
APAR_TRACE_OUT="$TRACE_DIR/server.json" APAR_METRICS=1 \
  "$SERVER" --port-file "$PORT_FILE" --run-seconds 120 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$TRACE_DIR"' EXIT
for _ in $(seq 1 200); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.05
done
[ -s "$PORT_FILE" ] || { echo "run_net_smoke: no port for traced round" >&2; exit 1; }
PORT="$(cat "$PORT_FILE")"

echo "=== traced sieve over tcp://127.0.0.1:$PORT ==="
APAR_TRACE_OUT="$TRACE_DIR/client.json" \
  "$CLIENT" --port "$PORT" --format compact --max 100000 --filters 3

# Live telemetry: three refreshing polls of the kTelemetry op, last one
# dumped raw so check_obs can validate the envelope.
"$PY" tools/apar_top.py --plain --interval 0.3 --iterations 3 \
  --dump "$TRACE_DIR/telemetry.json" "127.0.0.1:$PORT"
"$PY" tools/check_obs.py --telemetry "$TRACE_DIR/telemetry.json" \
  --require-metric net.server.queue_depth

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
trap 'rm -rf "$TRACE_DIR"' EXIT

# Stitch the two per-process dumps into one Perfetto-loadable trace and
# assert the golden structure: serve.* spans remote-parented into the
# client's spans.
"$PY" tools/merge_traces.py "$TRACE_DIR/client.json" "$TRACE_DIR/server.json" \
  -o "$TRACE_DIR/merged.json" --require-links 1 --assert-remote-parents serve.
"$PY" tools/check_obs.py --merged "$TRACE_DIR/merged.json"

rm -rf "$TRACE_DIR" "$PORT_FILE"
trap - EXIT
echo "net smoke clean: both formats + one distributed trace, two processes"
