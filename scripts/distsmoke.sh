#!/bin/sh
# End-to-end smoke of stallserved's distributed (coordinator) mode, run by
# `make distsmoke` locally and in CI. Three real processes: a coordinator
# and two ordinary stallserved workers. The same sweep is run three ways —
# single-node (the golden), scattered across the healthy fleet, and
# scattered again while one worker is kill -9'd mid-sweep — and every
# result table must byte-match the golden: distribution, including failure
# recovery, must be invisible in the output.
set -eu

BUILD_DIR=${BUILD_DIR:-build}
P1=${DISTSMOKE_PORT:-18090}
P2=$((P1 + 1))
P3=$((P1 + 2))
W1=http://127.0.0.1:$P1
W2=http://127.0.0.1:$P2
COORD=http://127.0.0.1:$P3
LOG1=$BUILD_DIR/distsmoke-w1.log
LOG2=$BUILD_DIR/distsmoke-w2.log
LOGC=$BUILD_DIR/distsmoke-coord.log
SPEC=$BUILD_DIR/distsmoke-spec.json

fail() {
  echo "distsmoke: FAIL: $*" >&2
  for f in "$LOGC" "$LOG1" "$LOG2"; do
    sed "s|^|distsmoke: $(basename "$f"): |" "$f" >&2 || true
  done
  exit 1
}

wait_healthy() {
  i=0
  until curl -sf "$1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "$1 never became healthy"
    sleep 0.1
  done
}

mkdir -p "$BUILD_DIR"
go build -o "$BUILD_DIR/stallserved" ./cmd/stallserved
go build -o "$BUILD_DIR/stallclient" ./examples/client

# A 10-cell grid sized so the sweep takes a few seconds — long enough to
# kill a worker while cases are still in flight.
cat >"$SPEC" <<'EOF'
{
  "name": "distsmoke",
  "title": "distsmoke cache sweep",
  "row_header": ["cache"],
  "base": {"model": "resnet18", "dataset": "imagenet-1k", "scale": 0.5, "epochs": 2, "seed": 7, "batch": 16, "loader": "coordl"},
  "rows": {"param": "cache_fraction", "values": [0.1, 0.25, 0.4, 0.55, 0.7]},
  "sweep": {"param": "loader", "values": ["dali-shuffle", "coordl"]},
  "columns": [
    {"label": "dali s", "metric": "epoch_s", "of": "dali-shuffle"},
    {"label": "coordl s", "metric": "epoch_s", "of": "coordl"}
  ]
}
EOF

# --- Golden: the same sweep on a plain single-node server. ---
"$BUILD_DIR/stallserved" -addr 127.0.0.1:"$P1" -workers 2 >"$LOG1" 2>&1 &
SINGLEPID=$!
trap 'kill "$SINGLEPID" 2>/dev/null || true' EXIT
wait_healthy "$W1"
"$BUILD_DIR/stallclient" -addr 127.0.0.1:"$P1" -table-only -spec "$SPEC" >"$BUILD_DIR/distsmoke-golden.txt" ||
  fail "single-node sweep"
kill -TERM "$SINGLEPID"
wait "$SINGLEPID" || fail "single-node server exited non-zero"
echo "distsmoke: single-node golden captured"

# --- Fleet: two workers plus a coordinator. ---
COORDPID=
"$BUILD_DIR/stallserved" -addr 127.0.0.1:"$P1" -workers 2 >"$LOG1" 2>&1 &
W1PID=$!
"$BUILD_DIR/stallserved" -addr 127.0.0.1:"$P2" -workers 2 >"$LOG2" 2>&1 &
W2PID=$!
trap 'kill "$W1PID" "$W2PID" "$COORDPID" 2>/dev/null || true' EXIT
wait_healthy "$W1"
wait_healthy "$W2"
"$BUILD_DIR/stallserved" -addr 127.0.0.1:"$P3" -coordinator \
  -workers "$W1,$W2" -backoff 50ms >"$LOGC" 2>&1 &
COORDPID=$!
wait_healthy "$COORD"
curl -sf "$COORD/healthz" | grep -q '"healthy": 2' || fail "coordinator does not report 2 healthy workers"

# Sweep 1: healthy fleet. Byte-identical to single-node, and each worker
# is sent its share as at most 4 batches (the -inflight default).
submitted() { curl -sf "$1/metrics" | awk '$1 == "stallserved_jobs_submitted_total" { print $2 }'; }
S1=$(submitted "$W1")
S2=$(submitted "$W2")
"$BUILD_DIR/stallclient" -addr 127.0.0.1:"$P3" -table-only -spec "$SPEC" >"$BUILD_DIR/distsmoke-fleet.txt" ||
  fail "fleet sweep"
for pair in "$W1 $S1" "$W2 $S2"; do
  set -- $pair
  n=$(($(submitted "$1") - $2))
  [ "$n" -le 4 ] || fail "worker $1 was sent $n jobs for one sweep, want at most 4 batches"
done
cmp -s "$BUILD_DIR/distsmoke-golden.txt" "$BUILD_DIR/distsmoke-fleet.txt" ||
  fail "fleet report differs from single-node golden:
$(diff "$BUILD_DIR/distsmoke-golden.txt" "$BUILD_DIR/distsmoke-fleet.txt" || true)"
echo "distsmoke: fleet sweep byte-matches the single-node golden"

# Sweep 2: kill -9 a worker mid-sweep. The coordinator must mark it
# unhealthy, re-route its cases to the survivor, and still gather the
# byte-identical report.
"$BUILD_DIR/stallclient" -addr 127.0.0.1:"$P3" -table-only -spec "$SPEC" >"$BUILD_DIR/distsmoke-fleet2.txt" &
CLIENTPID=$!
i=0
until curl -sf "$W2/v1/jobs" 2>/dev/null | grep -q '"status": "running"'; do
  i=$((i + 1))
  [ "$i" -lt 200 ] || fail "worker 2 never received a case to kill mid-flight"
  sleep 0.05
done
kill -9 "$W2PID"
echo "distsmoke: killed worker 2 mid-sweep"
wait "$CLIENTPID" || fail "fleet sweep with worker death"
cmp -s "$BUILD_DIR/distsmoke-golden.txt" "$BUILD_DIR/distsmoke-fleet2.txt" ||
  fail "post-kill fleet report differs from single-node golden:
$(diff "$BUILD_DIR/distsmoke-golden.txt" "$BUILD_DIR/distsmoke-fleet2.txt" || true)"
grep -q 'unhealthy' "$LOGC" || fail "coordinator never marked the dead worker unhealthy"
curl -sf "$COORD/healthz" | grep -q '"healthy": 1' || fail "coordinator still counts the dead worker healthy"
echo "distsmoke: sweep survived kill -9 with a byte-identical report"

# Clean drain of the survivors.
kill -TERM "$COORDPID" "$W1PID"
wait "$COORDPID" || fail "coordinator exited non-zero on SIGTERM"
wait "$W1PID" || fail "worker 1 exited non-zero on SIGTERM"
echo "distsmoke: PASS"
