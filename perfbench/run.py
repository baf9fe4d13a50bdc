#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark from source, runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the repository libraries it links, from src/) into
.bench_build/perfbench with CMake, then runs the benchmark program. The last
line of standard output is the program's JSON result; build output goes to
standard error. Exits non-zero, printing no result, when the repository
sources are missing or the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ("check_ram", "check_budget", "mbtc_fuzz", "mbtcg_gen")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: repository sources (src/) not found\n")
        return 2
    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build, "--target", "xbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", here, "-B", build,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=root).returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            return 2

    command = [
        os.path.join(build, "xbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--reference", os.path.join(here, "reference_counts.json"),
        "--out-dir", os.path.join(root, ".bench_out"),
    ]
    # The program times its set-up from this instant: the cold start of a
    # fresh process is part of what a user waits for.
    command += ["--spawn-ns", str(time.monotonic_ns())]
    sys.stdout.flush()
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
