#!/usr/bin/env python3
"""Runs every workload k times with different seeds and reports spreads.

    python3 perfbench/stability.py [--runs 10] [--first-seed 1]
                                   [--workloads large_doc,small_doc]

For each workload and metric it prints the median of the runs, the
quartile spread ((q3 - q1) / median, with the quartiles of
statistics.quantiles(values, n=4)) and, for end-to-end metrics, the bound
from BENCHMARK.json. A spread below a third of its bound is marked "ok",
setup_s included. Runs are untraced (--trace 0). Also prints the share of
failed operations per workload, which must be the same in every run. This
is the evidence for the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit code %d" %
                           (workload, seed, result.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.first_seed + i,
                            spec["run_seconds"])
                   for i in range(args.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print("%s: %d runs, correct=%s, failed share %s" %
              (workload, len(results), correct, shares))
        print("  %-36s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else "WIDE"
                worst = max(worst, spread / bound)
            print("  %-36s %14.6g %8.1f%% %7s %s  [%s]" %
                  (name, median, spread * 100,
                   "" if bound is None else "%g" % bound, verdict,
                   first["unit"]))
        sys.stdout.flush()
    print("largest spread / bound: %.2f" % worst)


if __name__ == "__main__":
    main()
