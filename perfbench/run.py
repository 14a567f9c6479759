#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig-exact --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds the optimizer library and the benchmark
program into .bench_build/ (Release); later runs only rebuild what changed.
Build output goes to standard error, so the last line of standard output is
the program's JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fig-exact", "serve-zipf", "frontier-wide")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "dphyp.h")):
        fail("optimizer sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True, env=env)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the self-test of the reference computations")
    args = parser.parse_args()

    try:
        if args.selftest:
            sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
        if args.workload is None:
            fail("--workload is required")
        binary = build("perfbench")
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--trace-dir", os.path.join(BUILD, "traces")]
        sys.exit(subprocess.run(command, cwd=ROOT).returncode)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(str(e))


if __name__ == "__main__":
    main()
