#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see benchmark/README.md).

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
repository's fetch_core library and the benchmark driver into
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs rebuild only
what changed. The driver's last stdout line is the result object.
Without the repository sources next to this directory it exits with an
error and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOBS = "4"


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("repository sources (CMakeLists.txt, src/) not found next to "
             "benchmark/")
    # Build output goes to stderr: stdout carries only the result line.
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "fetchbench", "-j", JOBS],
    ]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "fetchbench")


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    args = [binary, "--pins", os.path.join(HERE, "pins.json"),
            "--out-dir", os.path.join(ROOT, ".bench_out")] + sys.argv[1:]
    done = subprocess.run(args, cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
