#!/bin/sh
# End-to-end smoke of result memoization, run by `make memosmoke` locally
# and in CI. Three legs on real binaries sharing one cache directory:
#
#   1. CLI: runsuite runs every spec-backed experiment (SPEC_IDS) cold
#      into a fresh -memo dir, then warm — the warm run must simulate
#      nothing (100% hits, >= the 90% floor) and emit a byte-identical JSON
#      report.
#   2. Daemon: a cold stallserved runs fig5 into its own dir; a second
#      server opened on the CLI-warmed directory must serve the same spec
#      entirely from the CLI's entries (zero misses) with /v1/query bytes
#      identical to the cold server's — the two binaries share one on-disk
#      format.
#   3. Corruption: one entry in the warm directory is bit-flipped; the
#      rerun must count a load error, quietly re-simulate that case, and
#      still produce the identical report.
#   4. Crash: a cold runsuite is killed -9 partway through, while entries
#      are being written behind its cases, and a leftover temp file is
#      planted beside an entry. The rerun must exit 0, serve every entry
#      the killed run left without a load error, emit the byte-identical
#      report, and leave no *.tmp file in the directory.
#
# DATASTALL_MEMO_SALT pins the engine salt so both binaries address the
# same entries even on dirty builds.
set -eu

BUILD_DIR=${BUILD_DIR:-build}
PORT=${MEMOSMOKE_PORT:-18096}
URL=http://127.0.0.1:$PORT
MEMO=$BUILD_DIR/memosmoke-cache
SRVLOGA=$BUILD_DIR/memosmoke-servera.log
SRVLOGB=$BUILD_DIR/memosmoke-serverb.log
QUERY='{"order_by":[{"col":"case_id"}]}'
# The registry experiments defined as Specs (GET /v1/specs), the ones whose
# cases go through the memo cache.
SPEC_IDS=ablation-cache,ablation-prefetch,ablation-remote,fig18,fig21,fig5,fig6,fig9a,fig9b
SRVPID=
export DATASTALL_MEMO_SALT=memosmoke

fail() {
  echo "memosmoke: FAIL: $*" >&2
  for f in "$SRVLOGA" "$SRVLOGB"; do
    [ -f "$f" ] && sed "s|^|memosmoke: $(basename "$f"): |" "$f" >&2 || true
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

# Submit {"spec_name": "fig5"} and wait for completion; sets JOB_ID.
run_fig5() {
  JOB_ID=$(curl -sf -X POST "$URL/v1/jobs" -d '{"spec_name": "fig5"}' |
    sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
  [ -n "$JOB_ID" ] || fail "submit returned no job id ($1)"
  i=0
  until curl -sf "$URL/v1/jobs/$JOB_ID" 2>/dev/null | grep -q '"status": "completed"'; do
    i=$((i + 1))
    [ "$i" -lt 600 ] || fail "job $JOB_ID never completed ($1)"
    sleep 0.1
  done
}

# metric NAME LOGLABEL -> value of the metric on the current server.
metric() {
  curl -sf "$URL/metrics" | sed -n "s/^$1 //p"
}

# memo_field LINE FIELD -> numeric value of FIELD=N on a slog memo-summary
# line (msg="memo summary" hits=N misses=N evictions=N load_errors=N).
memo_field() {
  echo "$1" | sed -n "s/.*[[:space:]]$2=\([0-9][0-9]*\).*/\1/p"
}

mkdir -p "$BUILD_DIR"
go build -o "$BUILD_DIR/runsuite" ./cmd/runsuite
go build -o "$BUILD_DIR/stallserved" ./cmd/stallserved
rm -rf "$MEMO"

# --- Leg 1: CLI cold then warm. ---
"$BUILD_DIR/runsuite" -ids "$SPEC_IDS" -json -cases -memo "$MEMO" \
  >"$BUILD_DIR/memosmoke-cold.json" 2>"$BUILD_DIR/memosmoke-cold.err" ||
  fail "cold runsuite failed: $(cat "$BUILD_DIR/memosmoke-cold.err")"
COLD_LINE=$(grep 'msg="memo summary"' "$BUILD_DIR/memosmoke-cold.err") ||
  fail "cold run printed no memo summary"
COLD_MISSES=$(memo_field "$COLD_LINE" misses)
[ "$COLD_MISSES" -gt 0 ] || fail "cold run missed nothing: $COLD_LINE"

"$BUILD_DIR/runsuite" -ids "$SPEC_IDS" -json -cases -memo "$MEMO" \
  >"$BUILD_DIR/memosmoke-warm.json" 2>"$BUILD_DIR/memosmoke-warm.err" ||
  fail "warm runsuite failed: $(cat "$BUILD_DIR/memosmoke-warm.err")"
WARM_LINE=$(grep 'msg="memo summary"' "$BUILD_DIR/memosmoke-warm.err") ||
  fail "warm run printed no memo summary"
WARM_HITS=$(memo_field "$WARM_LINE" hits)
WARM_MISSES=$(memo_field "$WARM_LINE" misses)
[ "$WARM_MISSES" -eq 0 ] || fail "warm run re-simulated $WARM_MISSES case(s): $WARM_LINE"
[ "$WARM_HITS" -eq "$COLD_MISSES" ] ||
  fail "warm hits $WARM_HITS != cold misses $COLD_MISSES"
# The >= 90% hit-rate floor; with zero misses the warm rate is 100%.
[ $((WARM_HITS * 10)) -ge $(((WARM_HITS + WARM_MISSES) * 9)) ] || fail "hit rate below 90%"
cmp -s "$BUILD_DIR/memosmoke-cold.json" "$BUILD_DIR/memosmoke-warm.json" ||
  fail "warm suite report differs from cold:
$(diff "$BUILD_DIR/memosmoke-cold.json" "$BUILD_DIR/memosmoke-warm.json" | head -20)"
echo "memosmoke: CLI warm rerun served $WARM_HITS/$COLD_MISSES cases from cache, report byte-identical"

# --- Leg 2: cold daemon vs a daemon on the CLI-warmed directory. ---
rm -rf "$BUILD_DIR/memosmoke-cache-daemon"
"$BUILD_DIR/stallserved" -addr 127.0.0.1:"$PORT" -workers 2 \
  -memo "$BUILD_DIR/memosmoke-cache-daemon" >"$SRVLOGA" 2>&1 &
SRVPID=$!
trap 'kill "$SRVPID" 2>/dev/null || true' EXIT
wait_healthy daemon-cold
run_fig5 daemon-cold
DAEMON_MISSES=$(metric stallserved_memo_misses_total)
[ -n "$DAEMON_MISSES" ] && [ "$DAEMON_MISSES" -gt 0 ] ||
  fail "cold daemon reported no memo misses"
curl -sf -X POST "$URL/v1/query" -d "$QUERY" >"$BUILD_DIR/memosmoke-daemon-cold.ndjson" ||
  fail "cold daemon query"
kill -TERM "$SRVPID"
wait "$SRVPID" || fail "cold daemon exited non-zero on SIGTERM"

"$BUILD_DIR/stallserved" -addr 127.0.0.1:"$PORT" -workers 2 \
  -memo "$MEMO" >"$SRVLOGB" 2>&1 &
SRVPID=$!
wait_healthy daemon-warm
run_fig5 daemon-warm
[ "$(metric stallserved_memo_misses_total)" = "0" ] ||
  fail "daemon on the CLI-warmed dir re-simulated $(metric stallserved_memo_misses_total) case(s): the binaries do not share a format"
[ "$(metric stallserved_memo_hits_total)" = "$DAEMON_MISSES" ] ||
  fail "daemon hits $(metric stallserved_memo_hits_total) != cold daemon misses $DAEMON_MISSES"
curl -sf -X POST "$URL/v1/query" -d "$QUERY" >"$BUILD_DIR/memosmoke-daemon-warm.ndjson" ||
  fail "warm daemon query"
cmp -s "$BUILD_DIR/memosmoke-daemon-cold.ndjson" "$BUILD_DIR/memosmoke-daemon-warm.ndjson" ||
  fail "/v1/query from CLI-warmed entries differs from the cold daemon:
$(diff "$BUILD_DIR/memosmoke-daemon-cold.ndjson" "$BUILD_DIR/memosmoke-daemon-warm.ndjson" | head -20)"
kill -TERM "$SRVPID"
wait "$SRVPID" || fail "warm daemon exited non-zero on SIGTERM"
echo "memosmoke: daemon served fig5 from CLI-written entries ($DAEMON_MISSES cases), /v1/query byte-identical"

# --- Leg 3: a corrupted entry degrades to a counted miss, same bytes. ---
VICTIM=$(find "$MEMO" -name '*.memo' | head -1)
[ -n "$VICTIM" ] || fail "no .memo entries on disk to corrupt"
printf '\377' | dd of="$VICTIM" bs=1 seek=$(($(wc -c <"$VICTIM") - 1)) conv=notrunc 2>/dev/null
"$BUILD_DIR/runsuite" -ids "$SPEC_IDS" -json -cases -memo "$MEMO" \
  >"$BUILD_DIR/memosmoke-corrupt.json" 2>"$BUILD_DIR/memosmoke-corrupt.err" ||
  fail "runsuite failed on a corrupt entry: $(cat "$BUILD_DIR/memosmoke-corrupt.err")"
CORRUPT_LINE=$(grep 'msg="memo summary"' "$BUILD_DIR/memosmoke-corrupt.err") ||
  fail "corrupt run printed no memo summary"
LOAD_ERRS=$(memo_field "$CORRUPT_LINE" load_errors)
CORRUPT_MISSES=$(memo_field "$CORRUPT_LINE" misses)
[ "$LOAD_ERRS" -ge 1 ] || fail "corrupt entry was not counted as a load error: $CORRUPT_LINE"
[ "$CORRUPT_MISSES" -ge 1 ] || fail "corrupt entry was not treated as a miss: $CORRUPT_LINE"
cmp -s "$BUILD_DIR/memosmoke-cold.json" "$BUILD_DIR/memosmoke-corrupt.json" ||
  fail "report after corruption-induced re-simulation differs from cold"
echo "memosmoke: corrupt entry degraded to $CORRUPT_MISSES counted miss(es), report byte-identical"

# --- Leg 4: kill -9 mid-write, then a clean rerun. ---
# The kill must cut the cold run short, so a run that finished every
# entry before it is retried; after 5 such runs the leg fails.
CRASH=$BUILD_DIR/memosmoke-cache-crash
attempt=0
while :; do
  attempt=$((attempt + 1))
  rm -rf "$CRASH"
  "$BUILD_DIR/runsuite" -ids "$SPEC_IDS" -json -cases -memo "$CRASH" \
    >/dev/null 2>&1 &
  CRASHPID=$!
  i=0
  until [ -n "$(find "$CRASH" -name '*.memo' 2>/dev/null | head -1)" ]; do
    i=$((i + 1))
    [ "$i" -lt 2000 ] || fail "cold run wrote no entry to kill it after"
    sleep 0.005
  done
  kill -9 "$CRASHPID" 2>/dev/null || true
  wait "$CRASHPID" 2>/dev/null || true
  LEFT=$(find "$CRASH" -name '*.memo' | wc -l)
  LEFT=$((LEFT + 0))
  [ "$LEFT" -ge "$COLD_MISSES" ] || break
  [ "$attempt" -lt 5 ] ||
    fail "the kill -9 never cut the cold run short: $attempt runs wrote all $COLD_MISSES entries first"
done
# A temp file as a kill between create and rename leaves it.
PLANT=$(find "$CRASH" -name '*.memo' | head -1).tmp
printf 'torn' >"$PLANT"
"$BUILD_DIR/runsuite" -ids "$SPEC_IDS" -json -cases -memo "$CRASH" \
  >"$BUILD_DIR/memosmoke-crash.json" 2>"$BUILD_DIR/memosmoke-crash.err" ||
  fail "runsuite failed after a kill -9: $(cat "$BUILD_DIR/memosmoke-crash.err")"
CRASH_LINE=$(grep 'msg="memo summary"' "$BUILD_DIR/memosmoke-crash.err") ||
  fail "rerun after the kill printed no memo summary"
[ "$(memo_field "$CRASH_LINE" load_errors)" -eq 0 ] ||
  fail "an entry the killed run left did not load: $CRASH_LINE"
[ "$(memo_field "$CRASH_LINE" hits)" -eq "$LEFT" ] ||
  fail "rerun hit $(memo_field "$CRASH_LINE" hits) entries, the killed run left $LEFT: $CRASH_LINE"
cmp -s "$BUILD_DIR/memosmoke-cold.json" "$BUILD_DIR/memosmoke-crash.json" ||
  fail "report after a kill -9 differs from cold:
$(diff "$BUILD_DIR/memosmoke-cold.json" "$BUILD_DIR/memosmoke-crash.json" | head -20)"
TMPS=$(find "$CRASH" -name '*.tmp')
[ -z "$TMPS" ] || fail "temp files survived the rerun: $TMPS"
echo "memosmoke: rerun after kill -9 (attempt $attempt) served the $LEFT of $COLD_MISSES entries left behind, report byte-identical, no temp files"
echo "memosmoke: PASS"
