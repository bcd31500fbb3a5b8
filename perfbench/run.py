#!/usr/bin/env python3
"""Builds the hedgeq benchmark harness and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a hedgeq checkout. The first call configures and
builds the harness (Release) into .bench_build/; later calls reuse it.
The last line of standard output is the result JSON:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Build output and diagnostics go to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("large_doc", "small_doc", "cold_churn", "schema_static")
# A run measures for --seconds and then checks its answers; none takes
# near this long unless something is wrong.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hedgeq sources under " + ROOT + "; run from a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="override a serving workload's worker count "
                             "(core-scaling figures; 0 = its own)")
    parser.add_argument("--self-test", action="store_true",
                        help="show that every answer check rejects a "
                             "tampered answer")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(BINARY):
        build()

    name = "selftest" if args.self_test else args.workload
    work_dir = os.path.join(ROOT, ".bench_work", "%s-%d" % (name, os.getpid()))
    command = [BINARY, "--work-dir", work_dir]
    if args.self_test:
        command.append("--self-test")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--workers", str(args.workers)]
        if args.trace:
            trace_dir = os.path.join(ROOT, ".bench_traces")
            os.makedirs(trace_dir, exist_ok=True)
            command += ["--trace-file", os.path.join(
                trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail("harness exited with code %d" % result.returncode)
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()
