#!/usr/bin/env bash
# Smoke test for the warpd daemon: start it, compile and run the
# Figure 4-1 polynomial program over HTTP, assert the second compile is
# a cache hit, and scrape /metrics.  Needs curl and jq.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${WARPD_PORT:-8037}"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
trap 'kill "$WARPD_PID" 2>/dev/null || true; wait "$WARPD_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/warpd" ./cmd/warpd
"$TMP/warpd" -addr "$ADDR" -workers 2 &
WARPD_PID=$!

for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" -eq 50 ]; then echo "FAIL: warpd never became healthy" >&2; exit 1; fi
  sleep 0.2
done
echo "healthz: ok"

jq -Rs '{source: .}' testdata/polynomial.w2 > "$TMP/compile.json"

CACHED1=$(curl -sf -X POST --data @"$TMP/compile.json" "$BASE/compile" | jq -r .cached)
[ "$CACHED1" = "false" ] || { echo "FAIL: first compile reported cached=$CACHED1" >&2; exit 1; }
echo "compile #1: miss (compiled)"

CACHED2=$(curl -sf -X POST --data @"$TMP/compile.json" "$BASE/compile" | jq -r .cached)
[ "$CACHED2" = "true" ] || { echo "FAIL: second compile reported cached=$CACHED2, want a cache hit" >&2; exit 1; }
echo "compile #2: cache hit"

jq -Rs '{source: ., inputs: {z: [range(100)|./25], c: [range(10)|./8]}}' \
  testdata/polynomial.w2 > "$TMP/run.json"
RUN=$(curl -sf -X POST --data @"$TMP/run.json" "$BASE/run")
CYCLES=$(echo "$RUN" | jq -r .stats.cycles)
NOUT=$(echo "$RUN" | jq -r '.outputs.results | length')
[ "$CYCLES" -gt 0 ] && [ "$NOUT" -eq 100 ] || {
  echo "FAIL: run returned cycles=$CYCLES, |results|=$NOUT" >&2; exit 1; }
echo "run: $CYCLES cycles, $NOUT outputs"

# The flight recorder saw all three requests, newest first, and the run
# request carries a full span tree: request stages plus the per-phase
# compile spans under the cache lookup (the run compiled nothing — its
# program was already cached — so the phases live on the first compile).
DEBUG=$(curl -sf "$BASE/debug/requests")
NREQ=$(echo "$DEBUG" | jq '.requests | length')
[ "$NREQ" -eq 3 ] || { echo "FAIL: /debug/requests holds $NREQ records, want 3" >&2; exit 1; }
echo "$DEBUG" | jq -e '[.requests[0].spans[].name] | contains(["request","cache","queue-wait","run"])' >/dev/null ||
  { echo "FAIL: run request span tree lacks the request stages" >&2; exit 1; }
echo "$DEBUG" | jq -e '[.requests[].spans[].name] | contains(["parse","cellgen"])' >/dev/null ||
  { echo "FAIL: no request recorded per-phase compile spans" >&2; exit 1; }
echo "$DEBUG" | jq -e '.requests[0].total_ns > 0 and ([.requests[0].spans[].end_ns] | min >= 0)' >/dev/null ||
  { echo "FAIL: run request spans are not closed with a positive total" >&2; exit 1; }
echo "$DEBUG" | jq -e '.requests | all(.outcome == "ok")' >/dev/null ||
  { echo "FAIL: some recorded request did not succeed" >&2; exit 1; }
RUNID=$(echo "$DEBUG" | jq -r '.requests[0].id')
curl -sf "$BASE/debug/requests/$RUNID/trace" | jq -e '.traceEvents | length > 0' >/dev/null ||
  { echo "FAIL: per-request Chrome trace download is not valid JSON" >&2; exit 1; }
echo "debug/requests: ok ($NREQ records, trace download ok)"

# The run response and the flight record both carry the backend
# decision audit: which executor ran, why, the exact cycle count and the
# measured wall.
echo "$RUN" | jq -e '.decision.backend != null and .decision.reason != null and .decision.actual_wall_ns > 0' >/dev/null ||
  { echo "FAIL: run response has no backend decision audit" >&2; exit 1; }
curl -sf "$BASE/debug/requests/$RUNID" | jq -e '.decision.reason != null' >/dev/null ||
  { echo "FAIL: /debug/requests/{id} record has no decision" >&2; exit 1; }
echo "decision: $(echo "$RUN" | jq -r '"backend \(.decision.backend) (\(.decision.reason))"')"

# Live progress: launch a partitioned matmul (25 tiles of the 8-cell
# kernel — long enough to stream) and attach an SSE watcher mid-run.
# The stream must deliver at least one event and terminate with an
# `event: done` frame; this holds even if the run wins the race and
# finishes first, because a late subscriber gets the terminal snapshot
# as its lone event.
jq -Rs '{source: ., inputs: {a: [range(1600)|./40], bmat: [range(1600)|./41]},
         partition: {workload: "matmul", m: 40, k: 40, n: 40}}' \
  testdata/matmul8.w2 > "$TMP/fabric.json"
curl -sf -X POST --data @"$TMP/fabric.json" "$BASE/run" >/dev/null &
RUN_BG=$!
PROGID=""
for i in $(seq 1 100); do
  PROGID=$(curl -sf "$BASE/debug/progress" | jq -r '[.progress[] | select(.done | not)] | .[0].id // empty')
  if [ -n "$PROGID" ]; then break; fi
  # The run may already be over; take any tracked entry.
  PROGID=$(curl -sf "$BASE/debug/progress" | jq -r '.progress[-1].id // empty')
  if [ -n "$PROGID" ] && ! kill -0 "$RUN_BG" 2>/dev/null; then break; fi
  sleep 0.05
done
[ -n "$PROGID" ] || { echo "FAIL: run never appeared in /debug/progress" >&2; exit 1; }
SSE=$(curl -sf -N --max-time 30 "$BASE/debug/requests/$PROGID/progress")
wait "$RUN_BG" || { echo "FAIL: background partitioned run failed" >&2; exit 1; }
NDATA=$(echo "$SSE" | grep -c '^data: ' || true)
[ "$NDATA" -ge 1 ] || { echo "FAIL: SSE stream delivered $NDATA events, want >= 1" >&2; exit 1; }
echo "$SSE" | grep -q '^event: done' ||
  { echo "FAIL: SSE stream did not terminate with a done event" >&2; exit 1; }
echo "$SSE" | tail -n 2 | grep -q '"done":true' ||
  { echo "FAIL: terminal SSE payload is not marked done" >&2; exit 1; }
echo "progress: SSE streamed $NDATA event(s), terminal done frame ok"

# One request, one record: the ID the progress listing handed out is
# the partitioned run's flight record too, and a made-up ID is refused
# alike by every per-request view.
curl -sf "$BASE/debug/requests/$PROGID" |
  jq -e '.decision.reason != null and ([.spans[].name] | contains(["fabric"]))' >/dev/null ||
  { echo "FAIL: /debug/requests/$PROGID lacks the decision audit or a fabric span" >&2; exit 1; }
curl -sf "$BASE/debug/requests/$PROGID/progress?format=json" | jq -e '.done == true' >/dev/null ||
  { echo "FAIL: finished run's progress snapshot is not done" >&2; exit 1; }
for SUB in "" /trace /profile /progress "/progress?format=json"; do
  CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/requests/r999999$SUB")
  [ "$CODE" = "404" ] || { echo "FAIL: unknown request ID got $CODE on /debug/requests/r999999$SUB, want 404" >&2; exit 1; }
done
echo "request record: $PROGID resolves on record + progress; unknown ID 404s on every view"

# A run whose outputs overflow is refused with a 422 and a JSON body
# naming the first non-finite output, not answered 200 with no body.
jq -Rs '{source: ., inputs: {z: [range(100)|1e300], c: [range(10)|1e300]}}' \
  testdata/polynomial.w2 > "$TMP/overflow.json"
CODE=$(curl -s -o "$TMP/overflow.out" -w '%{http_code}' -X POST --data @"$TMP/overflow.json" "$BASE/run")
[ "$CODE" = "422" ] && jq -e '.error | test("^output results\\[[0-9]+\\] is [+-]Inf")' "$TMP/overflow.out" >/dev/null ||
  { echo "FAIL: overflowing run got $CODE: $(cat "$TMP/overflow.out")" >&2; exit 1; }
echo "non-finite outputs: 422 ($(jq -r .error "$TMP/overflow.out"))"

# A case-folded key is outside the canonical request shape the
# single-pass decoder takes: encoding/json serves it, as it always has.
jq -Rs '{Inputs: {z: [range(100)|./25], c: [range(10)|./8]}, source: .}' \
  testdata/polynomial.w2 > "$TMP/folded.json"
FOLDED=$(curl -sf -X POST --data @"$TMP/folded.json" "$BASE/run")
[ "$(echo "$FOLDED" | jq -c .outputs)" = "$(echo "$RUN" | jq -c .outputs)" ] ||
  { echo "FAIL: the case-folded request's outputs differ from the canonical one's" >&2; exit 1; }
echo "case-folded keys: served by the reference decoder, outputs identical"

METRICS=$(curl -sf "$BASE/metrics")
echo "$METRICS" | grep -q 'warpd_compile_requests_total{result="hit"} 1' ||
  { echo "FAIL: /metrics does not report the compile cache hit" >&2; exit 1; }
echo "$METRICS" | grep -q 'warpd_run_requests_total{result="ok"}' ||
  { echo "FAIL: /metrics does not report the completed run" >&2; exit 1; }
echo "$METRICS" | grep -q '^warpd_sim_cycles_total [1-9]' ||
  { echo "FAIL: /metrics does not aggregate simulated cycles" >&2; exit 1; }
echo "$METRICS" | grep -q 'warpd_run_seconds_bucket{' ||
  { echo "FAIL: /metrics has no run-latency histogram buckets" >&2; exit 1; }
echo "$METRICS" | grep -q 'warpd_queue_wait_seconds_count' ||
  { echo "FAIL: /metrics has no queue-wait histogram" >&2; exit 1; }
echo "$METRICS" | grep -q 'warpd_decision_total{' ||
  { echo "FAIL: /metrics has no backend decision counters" >&2; exit 1; }
if grep -q 'warpd_prediction_error' <<<"$METRICS"; then
  echo "FAIL: /metrics exports a wall-time prediction error" >&2; exit 1
fi
echo "$RUN" | jq -e '.decision | has("predicted_sim_wall_ns") | not' >/dev/null ||
  { echo "FAIL: run decision carries a wall-time prediction" >&2; exit 1; }
echo "metrics: ok (incl. latency histograms + decision audit)"

kill -TERM "$WARPD_PID"
wait "$WARPD_PID"
echo "warpd smoke: PASS"
