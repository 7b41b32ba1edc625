#!/usr/bin/env python3
"""Build and run the Adrias end-to-end benchmark.

    python3 perfbench/run.py --workload pair-hours --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first run configures and builds the
library and the benchmark program under .bench_build/perfbench (later
runs rebuild incrementally), then runs the arithmetic self-tests, then
the program.  Its output is passed through; the last line is the JSON
result.  The exit code is non-zero when the build, a self-test or a
correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# One library pool thread: set-up and batched inference then run the
# library's serial path, which keeps timings steady on a shared host.
POOL_THREADS = "1"


def run(cmd, timeout, **kwargs):
    """Run a command to completion, killing it on timeout."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources not found under " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            sys.exit("perfbench: configure failed")
    if run(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S,
           stdout=sys.stderr) != 0:
        sys.exit("perfbench: build failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["pair-hours", "rack-4x4", "serve-open"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        sys.exit("perfbench: --seed must be >= 0, --seconds in [1, 60]")

    build()
    if run([os.path.join(BUILD, "perfbench_selftest")], 60,
           stdout=sys.stderr) != 0:
        sys.exit("perfbench: arithmetic self-tests failed")

    env = dict(os.environ, ADRIAS_THREADS=POOL_THREADS)
    sys.stdout.flush()
    code = run([os.path.join(BUILD, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)],
               RUN_TIMEOUT_S, cwd=ROOT, env=env)
    sys.exit(code)


if __name__ == "__main__":
    main()
