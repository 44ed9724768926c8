#!/usr/bin/env bash
# Run every bench binary in build/bench and capture its stdout and its
# machine-readable outputs (CSVs, breakdown JSON, segment flame) in OUT_DIR.
#
#   bench/run_all.sh OUT_DIR
#
# The benches run with OUT_DIR as their working directory and write their
# files under relative default names, so the paths they echo are the same
# from run to run. Two runs, or a run of two checkouts, compare with
#
#   diff -r OUT_A OUT_B
#
# Every table is virtual time and byte-identical per seed. The only lines
# that may differ are google-benchmark's wall-clock context lines in
# tab_datatype.txt and micro_substrate.txt.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
bench_dir="$(cd "$(dirname "$0")/.." && pwd)/build/bench"
mkdir -p "$1"
cd "$1"

for exe in "$bench_dir"/*; do
  name=$(basename "$exe")
  case "$name" in
    fig2_attribute_cost | tab_chaos_kvstore | tab_fault_recovery | \
      tab_kvstore | tab_notify | tab_reliability | tab_survivability)
      args=(--csv) ;;
    micro_substrate) args=(--csv --benchmark_filter=NONE) ;;
    tab_datatype) args=(--benchmark_filter=NONE) ;;
    tab_congestion) args=(--heatmap-csv) ;;
    tab_latency_breakdown) args=(--breakdown-json --trace-flame) ;;
    *) args=() ;;
  esac
  "$exe" "${args[@]+"${args[@]}"}" > "$name.txt"
done
