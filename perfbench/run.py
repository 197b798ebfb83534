#!/usr/bin/env python3
"""Repository benchmark launcher.

Builds the mce library and the mce_perfbench program from the checkout's
sources (once per build directory), then runs one workload:

    python3 perfbench/run.py --workload fb-blocks --seed 0 --seconds 45 \
        --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else .bench_build/; inputs and spill files go to .bench_work/ and are
removed when the run ends. Build output goes to stderr, so the last line
of stdout is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fb-blocks", "powerlaw-reduce")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures and builds mce_perfbench; returns its path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    binary = os.path.join(build_dir, "mce_perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "mce_perfbench"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    work_dir = os.path.join(".bench_work", f"{args.workload}-{args.seed}-"
                            f"{args.trace}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass  # another run's directory is still there
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
