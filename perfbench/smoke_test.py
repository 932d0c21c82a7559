#!/usr/bin/env python3
"""Smoke test of perfbench: every workload of BENCHMARK.json, and the
ungated sql_point and olap_join, runs once at minimum size (--smoke),
untraced and traced.
Each run must exit 0, pass every correctness check, and print exactly the
metrics BENCHMARK.json names (end_to_end untraced, per_layer traced), each
with its unit.

    python3 perfbench/smoke_test.py PATH/TO/perfbench
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
# Workloads the binary runs that BENCHMARK.json does not gate (README.md).
UNGATED = ["sql_point", "olap_join"]


def check_run(binary, spec, workload, trace, spill_dir):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", "--spill-dir", spill_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    label = f"{workload} trace={trace}"
    errors = []
    if proc.returncode != 0:
        errors.append(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return errors + [f"{label}: printed nothing"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: checks failed: {lines[-1]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted = {result.get('attempted')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        errors.append(f"{label}: metrics {got} != {want}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{label}: {name} has no numeric value")
    # The human-readable report names every metric beside its unit too.
    for name, unit in want.items():
        if not any(l.split()[:1] == [name] and unit in l.split() for l in lines[:-1]):
            errors.append(f"{label}: report line for {name} [{unit}] missing")
    return errors


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = os.path.abspath(sys.argv[1])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    with tempfile.TemporaryDirectory(dir=os.path.dirname(binary)) as spill_dir:
        for workload in [w["name"] for w in spec["workloads"]] + UNGATED:
            for trace in (0, 1):
                errors += check_run(binary, spec, workload, trace, spill_dir)
                print(f"smoke: {workload} trace={trace} done", flush=True)
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
