#!/usr/bin/env bash
# Regenerates the deterministic committed bench baselines into a temp
# directory and diffs them exactly against the committed files. Every
# number these benches write is simulated microseconds or a count, a
# function of the seed and the code only, so any difference is a change
# in behaviour: re-baseline the file and say why, or fix the code.
#
# Usage: scripts/bench_diff.sh [build_dir]   (default: build-release)
#
# The JSON always goes through OFI_BENCH_JSON, so no committed file is
# overwritten. BENCH_htap_freshness.json is left out: background delta
# merges install at wall-clock-dependent points, so its delta legs vary
# from run to run (ROADMAP item 6 makes merges deterministic).
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build-release}"
out="$(mktemp -d)"
trap 'rm -rf "${out}"' EXIT

status=0
for name in exchange_pipeline index_lookup oltp_traffic; do
  bin="${build}/bench/bench_${name}"
  if [[ ! -x "${bin}" ]]; then
    echo "missing ${bin}: build the tree first" >&2
    exit 2
  fi
  echo "=== bench_${name} ==="
  OFI_BENCH_JSON="${out}/BENCH_${name}.json" "${bin}" \
    --benchmark_filter=nothing > "${out}/${name}.log" 2>&1
  if diff -u "BENCH_${name}.json" "${out}/BENCH_${name}.json"; then
    echo "identical: BENCH_${name}.json"
  else
    status=1
  fi
done
if [[ ${status} -ne 0 ]]; then
  echo "FAIL: simulated bench output differs from the committed baseline" >&2
fi
exit ${status}
