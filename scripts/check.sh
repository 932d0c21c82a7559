#!/usr/bin/env bash
# Sanitizer gate for the concurrent read path: builds the asan
# (Debug + ASan/UBSan) and tsan presets and runs the test suite under both.
# The bench gate builds the release preset and diffs the deterministic
# BENCH_*.json baselines exactly (scripts/bench_diff.sh).
# Usage: scripts/check.sh [asan|tsan|bench|all]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

want="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

run_preset() {
  local preset="$1"
  echo "=== ${preset}: configure + build + ctest ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
  # The join/columnar-scan tests cross threads by design (pool scatter of
  # scans and per-DN joins, vacuum-under-exchange stress, morsel-parallel
  # chunk scans), the admission-queue stress drives the CN gate from
  # 8 real threads, the scheduler test charges one resource from 4
  # threads, the MVCC test visits and copies the heap beside a
  # committing writer, and the scan-fragment test drives the per-DN
  # ShardSink (the scan's and the join's) on pool workers — run them by
  # name so a filtered or stale test list can never skip the reason this
  # gate exists.
  echo "=== ${preset}: exchange/join/columnar/distributed-sql/traffic focus ==="
  ctest --preset "${preset}" \
    -R "exchange|distributed_join|column_store|column_scan|column_groupby|columnar_mpp|mpp_query|distributed_sql|distributed_groupby|columnar_refresh|htap_freshness|traffic|admission_queue|group_commit|tpcc|secondary_index|sim_and_util|mvcc_concurrency|scan_fragment" \
    --output-on-failure
  echo "=== ${preset}: sql shell smoke (distributed) ==="
  scripts/sql_shell_smoke.sh "build-${preset}"
}

run_bench_diff() {
  echo "=== release: configure + build + bench diff ==="
  cmake --preset release
  cmake --build --preset release -j "${jobs}"
  scripts/bench_diff.sh build-release
}

case "${want}" in
  asan) run_preset asan ;;
  tsan) run_preset tsan ;;
  bench) run_bench_diff ;;
  all)
    run_preset asan
    run_preset tsan
    run_bench_diff
    ;;
  *)
    echo "usage: $0 [asan|tsan|bench|all]" >&2
    exit 2
    ;;
esac
echo "OK: ${want} checks passed"
