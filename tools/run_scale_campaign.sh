#!/usr/bin/env bash
# Scale campaign driver (EXPERIMENTS.md "Scale campaign"): bench_scale
# sweeps over {10k, 30k, 100k} jobs x {60, 128, 256} racks, each point
# paired with the same run under the all-racks dispatch scan
# (tests/oracle_diff --oracle=scan), RunReports written to results/.
# Serial on purpose — one run at a time so wall/RSS numbers are not
# contended.
#
#   tools/run_scale_campaign.sh [BUILD_DIR] [OUT_DIR]
#
# The 100k x 256 offer-queue point runs first: it is the ISSUE 8
# acceptance gate (< 15 min wall) and fails fast if the build regressed.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-results/scale_campaign}"
BENCH="$BUILD_DIR/bench/bench_scale"
ORACLE="$BUILD_DIR/tests/oracle_diff"
mkdir -p "$OUT_DIR"

run() {
  # Wall clock and peak RSS land in the v2 RunReport itself
  # (wall_clock_sec / rss_high_water_bytes); no external timer needed.
  # Completed points are skipped, so a rerun resumes where it stopped.
  # Mode offer-queue is the product run; scan and refsched are the
  # oracle_diff runs of the same point.
  local jobs="$1" racks="$2" mode="$3"
  local tag="j${jobs}_r${racks}_${mode}"
  if [ -s "$OUT_DIR/run_${tag}.json" ]; then
    echo "=== $tag (already done) ==="
    return
  fi
  echo "=== $tag ==="
  local cmd=("$BENCH")
  [ "$mode" != offer-queue ] && cmd=("$ORACLE" --oracle="$mode")
  "${cmd[@]}" --jobs="$jobs" --racks="$racks" --heartbeat=60 \
    --report-out="$OUT_DIR/run_${tag}.json" \
    > "$OUT_DIR/run_${tag}.log" 2>&1
  python3 tools/run_report.py show "$OUT_DIR/run_${tag}.json"
}

# Acceptance gate first.
run 100000 256 offer-queue

for jobs in 10000 30000 100000; do
  for racks in 60 128 256; do
    for mode in offer-queue scan; do
      [ "$jobs" = 100000 ] && [ "$racks" = 256 ] && \
        [ "$mode" = offer-queue ] && continue
      run "$jobs" "$racks" "$mode"
    done
  done
done

# Scheduler-engine cross-check at the 10k point: the incremental
# Co-scheduler must be bit-identical to ReferenceCoScheduler.
run 10000 60 refsched

echo "=== diffs ==="
for jobs in 10000 30000 100000; do
  for racks in 60 128 256; do
    python3 tools/run_report.py diff \
      "$OUT_DIR/run_j${jobs}_r${racks}_offer-queue.json" \
      "$OUT_DIR/run_j${jobs}_r${racks}_scan.json"
  done
done
python3 tools/run_report.py diff \
  "$OUT_DIR/run_j10000_r60_offer-queue.json" \
  "$OUT_DIR/run_j10000_r60_refsched.json"
echo "campaign complete"
