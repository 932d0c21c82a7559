#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources, then runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); exchange spill files go under it too. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero, printing no result, when the build fails (for
example in a directory that holds only the benchmark and no sources).

    python3 perfbench/run.py --smoke

runs every workload once at minimum size, traced and untraced, and checks
the printed metrics against BENCHMARK.json (see smoke_test.py).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_dir, "perfbench")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, **quiet)
    return build_dir


def main(argv):
    try:
        build_dir = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    if argv == ["--smoke"]:
        return subprocess.run([sys.executable, os.path.join(HERE, "smoke_test.py"),
                               binary]).returncode
    spill_dir = os.path.join(build_dir, "spill")
    os.makedirs(spill_dir, exist_ok=True)
    return subprocess.run([binary, *argv, "--spill-dir", spill_dir]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
