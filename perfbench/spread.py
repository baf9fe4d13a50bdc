#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workloads check_ram,mbtc_fuzz \\
        --seeds 1-10 [--seconds 10] [--trace 0] [--out FILE]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the quartile spread as a
share of the median, plus the failed share of attempted operations. The
raw results go to FILE as JSON lines (default .bench_out/spread.jsonl).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", default=os.path.join(".bench_out",
                                                      "spread.jsonl"))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    status = 0
    with open(args.out, "a") as log:
        for workload in args.workloads.split(","):
            results = []
            for seed in parse_seeds(args.seeds):
                proc = subprocess.run(
                    [sys.executable, os.path.join(here, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", args.seconds, "--trace", args.trace],
                    stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print("%s seed %d: exit %d" % (workload, seed,
                                                   proc.returncode))
                    status = 1
                    continue
                result = json.loads(lines[-1])
                result.update(workload=workload, seed=seed)
                log.write(json.dumps(result) + "\n")
                log.flush()
                if not result["correct"]:
                    status = 1
                results.append(result)
            report(workload, results)
    return status


def report(workload, results):
    if not results:
        return
    shares = {r["failed"] / r["attempted"] for r in results}
    print("%s: %d runs, all correct: %s, failed shares: %s" % (
        workload, len(results), all(r["correct"] for r in results),
        sorted(shares)))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / median if median else float("nan")
        print("  %-32s median %12.6g %-8s q1 %12.6g q3 %12.6g  iqr/median %.4f"
              % (name, median, unit, q1, q3, spread))


if __name__ == "__main__":
    sys.exit(main())
