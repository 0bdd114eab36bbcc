#!/usr/bin/env bash
# Fleet smoke: the CI gate for the pok-serve distributed-simulation
# fleet. It boots a coordinator and two workers, submits a short soak
# campaign with a seeded corruption (so every program is a finding),
# kills one worker mid-run, and requires that
#
#   (a) the job still completes — the dead worker's cell is requeued
#       after its lease expires and finished by the survivor, and
#   (b) the merged findings report is byte-identical to a
#       single-process run of the same campaign.
#
# Artifacts land under $OUT (default fleet-out): the solo and fleet
# findings JSON, repro bundles, coordinator/worker logs, a
# dashboard.html + status.json snapshot of the coordinator UI, and a
# mid-campaign metrics.prom Prometheus scrape that must carry the
# per-job CPI-stack, worker-throughput and RPC-health series.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OUT:-fleet-out}"
PORT="${PORT:-18923}"
URL="http://127.0.0.1:$PORT"
# The seeded corruption (-corrupt 20) makes every program diverge, so
# the byte-identical diff below compares non-trivial findings.
# -inst-ckpt arms instruction-granular checkpoints inside every
# detection run; checkpoint cadence is coverage-affecting, so the solo
# reference and the fleet job MUST share it for the diff to hold. With
# it armed, the killed worker's heartbeats carry a mid-program resume
# cursor, so the requeue below exercises instruction-granular resume.
SOAK_FLAGS=(-programs 6 -seed 7 -configs slice2
            -fragments 6 -loop-iters 2 -gen-insts 2000 -corrupt 20
            -reduce-tests 64 -inst-ckpt 10 -q)

rm -rf "$OUT"
mkdir -p "$OUT/solo" "$OUT/fleet" "$OUT/clean" "$OUT/worker-1" "$OUT/worker-2"

# RACE=1 builds both binaries with the race detector so the whole
# fleet protocol runs under it end to end.
go build ${RACE:+-race} -o "$OUT/pok-serve" ./cmd/pok-serve
go build ${RACE:+-race} -o "$OUT/pok-soak" ./cmd/pok-soak

pids=()
cleanup() {
  kill "${pids[@]}" 2>/dev/null || true
}
trap cleanup EXIT

"$OUT/pok-serve" -listen "127.0.0.1:$PORT" -lease 3s \
  >"$OUT/coordinator.log" 2>&1 &
pids+=($!)
for _ in $(seq 50); do
  curl -fsS "$URL/api/status" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$URL/api/status" >/dev/null

"$OUT/pok-serve" -worker -coordinator "$URL" -name worker-1 \
  -out "$OUT/worker-1" -poll 100ms >"$OUT/worker-1.log" 2>&1 &
pids+=($!)
"$OUT/pok-serve" -worker -coordinator "$URL" -name worker-2 \
  -out "$OUT/worker-2" -poll 100ms >"$OUT/worker-2.log" 2>&1 &
W2=$!
pids+=($W2)

# Single-process reference. Exit 1 (findings) is the expected outcome.
rc=0
"$OUT/pok-soak" "${SOAK_FLAGS[@]}" -out "$OUT/solo" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "fleet-smoke: solo run exited $rc, want 1 (findings)" >&2
  exit 1
fi

# The identical campaign as a fleet job, one program per cell so the
# wavefront spreads across both workers.
"$OUT/pok-soak" "${SOAK_FLAGS[@]}" -out "$OUT/fleet" \
  -submit "$URL" -cell-programs 1 &
SUBMIT=$!

# Kill worker 2 once the wavefront is moving: whatever cell it holds
# must be requeued when its lease expires and finished by worker 1.
done_count=0
for _ in $(seq 150); do
  done_count=$(curl -fsS "$URL/api/status" 2>/dev/null \
    | grep -o '"done": [0-9]*' | head -1 | grep -o '[0-9]*$' || echo 0)
  [ "${done_count:-0}" -ge 1 ] && break
  sleep 0.2
done
# Mid-campaign scrape of the corrupt job: the wavefront is moving, so
# progress and findings series must already be live.
curl -fsS "$URL/metrics" -o "$OUT/metrics-mid.prom"
grep -q '^pok_job_programs_done' "$OUT/metrics-mid.prom" || {
  echo "fleet-smoke: mid-campaign scrape is missing pok_job_programs_done" >&2
  exit 1
}

kill -9 "$W2" 2>/dev/null || true
echo "fleet-smoke: killed worker-2 at wavefront done=$done_count"

rc=0
wait "$SUBMIT" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "fleet-smoke: fleet run exited $rc, want 1 (findings)" >&2
  sed -n '1,40p' "$OUT/coordinator.log" >&2 || true
  exit 1
fi

# A short clean campaign on the surviving worker: its detection runs
# succeed, so heartbeat snapshots must stream CPI stacks to the
# coordinator — the corrupt campaign can't prove that (failed runs
# carry no cycle attribution). Scrape /metrics while the fleet is live
# and require the series the dashboard and Prometheus alerting depend
# on.
"$OUT/pok-soak" -programs 2 -seed 9 -configs slice2 \
  -fragments 6 -loop-iters 2 -gen-insts 2000 -reduce-tests 64 \
  -inst-ckpt 30 -q \
  -out "$OUT/clean" -submit "$URL" -cell-programs 1
curl -fsS "$URL/metrics" -o "$OUT/metrics.prom"
for series in pok_job_cpistack_cycles_total pok_job_cycles_total \
              pok_worker_insts_total pok_worker_minst_per_sec \
              pok_worker_rpc_retries_total pok_job_programs_done; do
  if ! grep -q "^$series" "$OUT/metrics.prom"; then
    echo "fleet-smoke: /metrics scrape is missing $series" >&2
    sed -n '1,60p' "$OUT/metrics.prom" >&2 || true
    exit 1
  fi
done
echo "fleet-smoke: /metrics scrape carries CPI-stack + throughput series"

# Archive the dashboard and the final fleet snapshot.
curl -fsS "$URL/" -o "$OUT/dashboard.html"
curl -fsS "$URL/api/status" -o "$OUT/status.json"
curl -fsS "$URL/api/metrics" -o "$OUT/metrics.json"

for f in findings-7.json deduped-7.json; do
  if ! diff -u "$OUT/solo/$f" "$OUT/fleet/$f"; then
    echo "fleet-smoke: $f differs between solo and fleet runs" >&2
    exit 1
  fi
done
echo "fleet-smoke: PASS — fleet findings byte-identical to the single-process run"
