#!/usr/bin/env bash
# Chaos smoke: the crash-safety CI gate for the pok-serve fleet. It
# runs the same campaign as fleet_smoke.sh, but
#
#   - the coordinator runs with a write-ahead journal (-journal),
#   - both workers talk to it through a seeded fault-injecting
#     transport (-chaos: dropped requests, dropped *responses*,
#     transport-level duplicates, synthesized 503s, delays),
#   - and the coordinator is SIGKILLed mid-campaign and restarted from
#     its journal on the same port.
#
# Pass criteria:
#
#   (a) the restarted coordinator logs a journal recovery line,
#   (b) the job completes despite the crash and the flaky network, and
#   (c) the merged findings report is byte-identical to a
#       single-process run — no finding lost, duplicated or reordered
#       by retries, duplicate deliveries or the crash.
#
# Artifacts land under $OUT (default chaos-out): solo and fleet
# findings JSON, both coordinator logs, worker logs, the journal, and
# a dashboard.html + status.json snapshot.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-chaos-out}"
PORT="${PORT:-18924}"
URL="http://127.0.0.1:$PORT"
CHAOS="${CHAOS:-drop=0.08,dup=0.05,err=0.08,delay=0.15,maxdelay=40ms}"
# -inst-ckpt must match between the solo reference and the fleet job:
# checkpoint cadence is coverage-affecting (drain bubbles shift the
# fault stream), so only same-cadence runs are byte-identical.
SOAK_FLAGS=(-programs 6 -seed 7 -configs slice2
            -fragments 6 -loop-iters 2 -gen-insts 2000 -corrupt 20
            -reduce-tests 64 -inst-ckpt 10 -q)

rm -rf "$OUT"
mkdir -p "$OUT/solo" "$OUT/fleet" "$OUT/worker-1" "$OUT/worker-2" "$OUT/journal"

go build ${RACE:+-race} -o "$OUT/pok-serve" ./cmd/pok-serve
go build ${RACE:+-race} -o "$OUT/pok-soak" ./cmd/pok-soak

pids=()
cleanup() {
  kill "${pids[@]}" 2>/dev/null || true
}
trap cleanup EXIT

start_coordinator() { # $1 = log file
  "$OUT/pok-serve" -listen "127.0.0.1:$PORT" -lease 5s \
    -journal "$OUT/journal" >"$1" 2>&1 &
  COORD=$!
  pids+=($COORD)
  for _ in $(seq 50); do
    curl -fsS "$URL/api/status" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fsS "$URL/api/status" >/dev/null
}

start_coordinator "$OUT/coordinator-1.log"

"$OUT/pok-serve" -worker -coordinator "$URL" -name worker-1 \
  -out "$OUT/worker-1" -poll 100ms \
  -chaos "$CHAOS" -chaos-seed 101 >"$OUT/worker-1.log" 2>&1 &
pids+=($!)
"$OUT/pok-serve" -worker -coordinator "$URL" -name worker-2 \
  -out "$OUT/worker-2" -poll 100ms \
  -chaos "$CHAOS" -chaos-seed 202 >"$OUT/worker-2.log" 2>&1 &
pids+=($!)

# Single-process reference. Exit 1 (findings) is the expected outcome.
rc=0
"$OUT/pok-soak" "${SOAK_FLAGS[@]}" -out "$OUT/solo" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "chaos-smoke: solo run exited $rc, want 1 (findings)" >&2
  exit 1
fi

# The identical campaign as a fleet job, one program per cell so the
# wavefront spreads across both workers and survives the crash mid-way.
"$OUT/pok-soak" "${SOAK_FLAGS[@]}" -out "$OUT/fleet" \
  -submit "$URL" -cell-programs 1 &
SUBMIT=$!

# SIGKILL the coordinator once the wavefront is moving — no drain, no
# shutdown marker, page cache only. The journal must carry everything.
done_count=0
for _ in $(seq 300); do
  done_count=$(curl -fsS "$URL/api/status" 2>/dev/null \
    | grep -o '"done": [0-9]*' | head -1 | grep -o '[0-9]*$' || echo 0)
  [ "${done_count:-0}" -ge 1 ] && break
  sleep 0.2
done
kill -9 "$COORD" 2>/dev/null || true
echo "chaos-smoke: SIGKILLed coordinator at wavefront done=$done_count"
sleep 1

# Restart from the journal on the same port. Workers ride the outage
# out (buffered cursors, retrying RPCs) and reconnect through their
# existing lease IDs; the submitter's poll loop rides it out too.
start_coordinator "$OUT/coordinator-2.log"

if ! grep -q "recovered .* journal records" "$OUT/coordinator-2.log"; then
  echo "chaos-smoke: restarted coordinator did not report journal recovery" >&2
  sed -n '1,20p' "$OUT/coordinator-2.log" >&2 || true
  exit 1
fi
grep -o "recovered .* journal records.*" "$OUT/coordinator-2.log" | head -1

rc=0
wait "$SUBMIT" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "chaos-smoke: fleet run exited $rc, want 1 (findings)" >&2
  echo "--- coordinator-2.log" >&2
  sed -n '1,40p' "$OUT/coordinator-2.log" >&2 || true
  echo "--- worker-1.log" >&2
  tail -20 "$OUT/worker-1.log" >&2 || true
  exit 1
fi

# Archive the dashboard and the final fleet snapshot.
curl -fsS "$URL/" -o "$OUT/dashboard.html"
curl -fsS "$URL/api/status" -o "$OUT/status.json"

for f in findings-7.json deduped-7.json; do
  if ! diff -u "$OUT/solo/$f" "$OUT/fleet/$f"; then
    echo "chaos-smoke: $f differs between solo and chaos-fleet runs" >&2
    exit 1
  fi
done
echo "chaos-smoke: PASS — findings byte-identical across coordinator crash + flaky transport"
