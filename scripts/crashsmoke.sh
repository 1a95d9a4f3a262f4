#!/bin/sh
# End-to-end crash-safety smoke of stallserved's WAL, run by
# `make crashsmoke` locally and in CI. One sweep is run five ways on real
# processes: uninterrupted (the golden), killed at a deterministic WAL
# append via the STALLWAL_CRASH self-SIGKILL injection, killed with a
# plain untimed kill -9 mid-sweep, and killed on either side of the
# checkpoint rename of the compaction its terminal record starts. Every
# crashed server is restarted on its WAL directory and must finish — the
# mid-sweep ones resuming, serving already-simulated cells from the log —
# with /v1/query bytes identical to the golden: a kill -9 must be
# invisible in the results.
set -eu

BUILD_DIR=${BUILD_DIR:-build}
PORT=${CRASHSMOKE_PORT:-18095}
URL=http://127.0.0.1:$PORT
LOGG=$BUILD_DIR/crashsmoke-golden.log
LOG1=$BUILD_DIR/crashsmoke-crash1.log
LOG1R=$BUILD_DIR/crashsmoke-recover1.log
LOG2=$BUILD_DIR/crashsmoke-crash2.log
LOG2R=$BUILD_DIR/crashsmoke-recover2.log
LOG3=$BUILD_DIR/crashsmoke-crash3.log
LOG3R=$BUILD_DIR/crashsmoke-recover3.log
SPEC=$BUILD_DIR/crashsmoke-spec.json
QUERY='{"order_by":[{"col":"case_id"}]}'
SRVPID=

fail() {
  echo "crashsmoke: FAIL: $*" >&2
  for f in "$LOGG" "$LOG1" "$LOG1R" "$LOG2" "$LOG2R" "$LOG3" "$LOG3R"; do
    [ -f "$f" ] && sed "s|^|crashsmoke: $(basename "$f"): |" "$f" >&2 || true
  done
  exit 1
}

wait_healthy() {
  i=0
  until curl -sf "$URL/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || fail "server never became healthy ($1)"
    sleep 0.1
  done
}

wait_dead() {
  i=0
  while kill -0 "$1" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -lt 600 ] || fail "$2"
    sleep 0.1
  done
}

# Submit the sweep and wait for the job to complete; sets JOB_ID.
run_sweep() {
  JOB_ID=$(curl -sf -X POST "$URL/v1/jobs" -d @"$SPEC" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
  [ -n "$JOB_ID" ] || fail "submit returned no job id ($1)"
  wait_completed "$1"
}

wait_completed() {
  i=0
  until curl -sf "$URL/v1/jobs/$JOB_ID" 2>/dev/null | grep -q '"status": "completed"'; do
    i=$((i + 1))
    [ "$i" -lt 600 ] || fail "job $JOB_ID never completed ($1)"
    sleep 0.1
  done
}

mkdir -p "$BUILD_DIR"
go build -o "$BUILD_DIR/stallserved" ./cmd/stallserved

# A 10-cell grid sized so the sweep runs for a few seconds — enough WAL
# appends to kill the server mid-case with most of the grid outstanding.
cat >"$SPEC" <<'EOF'
{
  "name": "crashsmoke",
  "title": "crashsmoke cache sweep",
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

# --- Golden: the sweep uninterrupted on a WAL-enabled server. ---
GOLD_WAL=$BUILD_DIR/crashsmoke-wal-golden
rm -rf "$GOLD_WAL"
"$BUILD_DIR/stallserved" -addr 127.0.0.1:"$PORT" -workers 1 -wal "$GOLD_WAL" >"$LOGG" 2>&1 &
SRVPID=$!
trap 'kill "$SRVPID" 2>/dev/null || true' EXIT
wait_healthy golden
run_sweep golden
curl -sf -X POST "$URL/v1/query" -d "$QUERY" >"$BUILD_DIR/crashsmoke-golden.ndjson" || fail "golden query"
kill -TERM "$SRVPID"
wait "$SRVPID" || fail "golden server exited non-zero on SIGTERM"
echo "crashsmoke: golden captured ($JOB_ID, $(wc -l <"$BUILD_DIR/crashsmoke-golden.ndjson") rows)"

# --- Phase 1: deterministic crash at the 6th WAL append. ---
# Appends 1-2 are the submitted/started records, 3-6 the first four
# case_done records; the injected SIGKILL lands mid-sweep with six cells
# still unsimulated. fsync defaults to always, so appends 1-6 are durable.
WAL1=$BUILD_DIR/crashsmoke-wal-1
rm -rf "$WAL1"
STALLWAL_CRASH=append:6 "$BUILD_DIR/stallserved" -addr 127.0.0.1:"$PORT" -workers 1 -wal "$WAL1" >"$LOG1" 2>&1 &
SRVPID=$!
wait_healthy crash1
grep -q 'crash injection armed' "$LOG1" || fail "crash injection never armed"
curl -sf -X POST "$URL/v1/jobs" -d @"$SPEC" >/dev/null || fail "crash1 submit"
wait_dead "$SRVPID" "server survived its armed crash point"
echo "crashsmoke: server self-killed at WAL append 6"

"$BUILD_DIR/stallserved" -addr 127.0.0.1:"$PORT" -workers 1 -wal "$WAL1" >"$LOG1R" 2>&1 &
SRVPID=$!
wait_healthy recover1
grep -q '1 interrupted job(s) to resume' "$LOG1R" || fail "restart logged no recovery summary"
curl -sf "$URL/metrics" | grep -q 'stallserved_wal_resumed_jobs_total 1' ||
  fail "restarted server did not re-enqueue the interrupted job"
JOB_ID=job-000001
wait_completed recover1
curl -sf "$URL/metrics" | grep -q 'stallserved_wal_resumed_cases_total 4' ||
  fail "resumed sweep did not serve the four logged cells from the WAL"
curl -sf -X POST "$URL/v1/query" -d "$QUERY" >"$BUILD_DIR/crashsmoke-recover1.ndjson" || fail "recover1 query"
cmp -s "$BUILD_DIR/crashsmoke-golden.ndjson" "$BUILD_DIR/crashsmoke-recover1.ndjson" ||
  fail "resumed /v1/query differs from the no-crash golden:
$(diff "$BUILD_DIR/crashsmoke-golden.ndjson" "$BUILD_DIR/crashsmoke-recover1.ndjson" || true)"
kill -TERM "$SRVPID"
wait "$SRVPID" || fail "recovered server exited non-zero on SIGTERM"
echo "crashsmoke: deterministic crash resumed to a byte-identical golden (4 cells from the log)"

# --- Phase 2: plain untimed kill -9 mid-sweep. ---
WAL2=$BUILD_DIR/crashsmoke-wal-2
rm -rf "$WAL2"
"$BUILD_DIR/stallserved" -addr 127.0.0.1:"$PORT" -workers 1 -wal "$WAL2" >"$LOG2" 2>&1 &
SRVPID=$!
wait_healthy crash2
curl -sf -X POST "$URL/v1/jobs" -d @"$SPEC" >/dev/null || fail "crash2 submit"
i=0
until curl -sf "$URL/metrics" 2>/dev/null | grep -Eq 'stallserved_wal_appends_total ([4-9]|1[0-2])$'; do
  i=$((i + 1))
  [ "$i" -lt 600 ] || fail "sweep never reached four WAL appends to kill against"
  sleep 0.05
done
kill -9 "$SRVPID"
wait_dead "$SRVPID" "kill -9 did not kill the server"
echo "crashsmoke: server killed -9 mid-sweep"

"$BUILD_DIR/stallserved" -addr 127.0.0.1:"$PORT" -workers 1 -wal "$WAL2" >"$LOG2R" 2>&1 &
SRVPID=$!
wait_healthy recover2
grep -q 'persist: recovered' "$LOG2R" || fail "post-kill restart logged no recovery summary"
JOB_ID=job-000001
wait_completed recover2
curl -sf -X POST "$URL/v1/query" -d "$QUERY" >"$BUILD_DIR/crashsmoke-recover2.ndjson" || fail "recover2 query"
cmp -s "$BUILD_DIR/crashsmoke-golden.ndjson" "$BUILD_DIR/crashsmoke-recover2.ndjson" ||
  fail "post-kill /v1/query differs from the no-crash golden:
$(diff "$BUILD_DIR/crashsmoke-golden.ndjson" "$BUILD_DIR/crashsmoke-recover2.ndjson" || true)"
kill -TERM "$SRVPID"
wait "$SRVPID" || fail "post-kill server exited non-zero on SIGTERM"
echo "crashsmoke: untimed kill -9 resumed to a byte-identical golden"

# --- Phase 3: crash mid-compaction, with memo entries written too. ---
# -wal-compact 1 compacts behind the sweep's terminal record. Memo entry
# writes announce their own crash point, so the armed compaction point
# fires only in the compaction: before the rename the temp checkpoint is
# left beside the old segments; after it the live checkpoint is, with the
# segments it subsumes not yet deleted. Either way the restart replays the
# finished job with no load error.
for POINT in pre-rename post-rename; do
  WAL3=$BUILD_DIR/crashsmoke-wal-3-$POINT
  MEMO3=$BUILD_DIR/crashsmoke-memo-3-$POINT
  rm -rf "$WAL3" "$MEMO3"
  STALLWAL_CRASH=compact:$POINT "$BUILD_DIR/stallserved" -addr 127.0.0.1:"$PORT" -workers 1 \
    -wal "$WAL3" -wal-compact 1 -memo "$MEMO3" >"$LOG3" 2>&1 &
  SRVPID=$!
  wait_healthy "crash3 $POINT"
  curl -sf -X POST "$URL/v1/jobs" -d @"$SPEC" >/dev/null || fail "crash3 $POINT submit"
  wait_dead "$SRVPID" "server survived its armed compact:$POINT crash point"
  if [ "$POINT" = pre-rename ]; then
    [ -f "$WAL3/checkpoint.wal.tmp" ] || fail "compact:pre-rename left no checkpoint.wal.tmp"
  else
    [ -f "$WAL3/checkpoint.wal" ] && [ -f "$WAL3/seg-00000001.wal" ] ||
      fail "compact:post-rename left no live checkpoint beside its subsumed segment"
  fi
  echo "crashsmoke: server self-killed at compact:$POINT"

  "$BUILD_DIR/stallserved" -addr 127.0.0.1:"$PORT" -workers 1 \
    -wal "$WAL3" -wal-compact 1 -memo "$MEMO3" >"$LOG3R" 2>&1 &
  SRVPID=$!
  wait_healthy "recover3 $POINT"
  grep -q '(0 load error(s))' "$LOG3R" || fail "restart after compact:$POINT reported load errors"
  JOB_ID=job-000001
  wait_completed "recover3 $POINT"
  curl -sf -X POST "$URL/v1/query" -d "$QUERY" >"$BUILD_DIR/crashsmoke-recover3.ndjson" || fail "recover3 $POINT query"
  cmp -s "$BUILD_DIR/crashsmoke-golden.ndjson" "$BUILD_DIR/crashsmoke-recover3.ndjson" ||
    fail "/v1/query after compact:$POINT differs from the no-crash golden:
$(diff "$BUILD_DIR/crashsmoke-golden.ndjson" "$BUILD_DIR/crashsmoke-recover3.ndjson" || true)"
  kill -TERM "$SRVPID"
  wait "$SRVPID" || fail "server recovered from compact:$POINT exited non-zero on SIGTERM"
  echo "crashsmoke: crash at compact:$POINT replayed to a byte-identical golden"
done
echo "crashsmoke: PASS"
