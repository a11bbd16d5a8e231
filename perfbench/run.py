#!/usr/bin/env python3
"""Benchmark entry point for burtree.

Builds perfbench_driver (this directory's CMake project, which compiles the
burtree library from the repository's src/ unchanged) in Release under
.bench_build/, then runs one workload and relays the driver's output. The
last stdout line is the result object:

    python3 perfbench/run.py --workload tracking --seed 1 --seconds 10 --trace 0

Workloads: tracking, read_mostly, durable_ingest (see perfbench/README.md).
--trace 1 runs the traced pass and prints the per-layer metrics instead of
the end-to-end ones. Build output goes to stderr. Data files of the file
backend and the WAL live in .bench_tmp/, span dumps and result records in
.bench_out/, all under the checkout root.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RUN_TIMEOUT_S = 175


def build():
    """Configures (Release) and builds the driver; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: burtree sources not found: expected src/ next to "
              "perfbench/", file=sys.stderr)
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs,
                 "--target", "perfbench_driver"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)


def run_driver(extra_args):
    """Runs the driver from the checkout root; returns its exit code."""
    try:
        return subprocess.run([DRIVER] + extra_args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = p.parse_known_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    build()
    sys.stdout.flush()
    sys.exit(run_driver(["--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)] + extra))


if __name__ == "__main__":
    main()
