#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The benchmark program (perfbench/src) is configured and
built with CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs rebuild incrementally.  Build output goes to stderr, so the
program's report is all that reaches stdout, its last line being the JSON
result.  Exits non-zero, printing no result, when the build or the run
fails.  Workloads: sim-paper, sim-groups, live-kvstore, live-index (see
perfbench/README.md).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim-paper", "sim-groups", "live-kvstore", "live-index")


def build(build_dir):
    """Configures and builds the benchmark program; returns its path."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"error: benchmark build failed: {error}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    run = subprocess.run([binary, "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", args.trace, "--work-dir", work_dir])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
