#!/usr/bin/env python3
"""Builds the ivdb benchmark from source and runs one workload.

Usage (from the repository root):

    python3 ivbench/run.py --workload <insert_solo|mixed_churn|device_hot> \
        --seed <n> --seconds <s> --trace <0|1> [--negative-check]

The engine and the driver are compiled into .bench_build/ with the release
preset's settings (optimised, runtime checkers compiled out); databases and
span files go to .bench_out/. The last line of standard output is the run's
JSON result. --negative-check corrupts one acknowledged operation in the
benchmark's shadow model, so the run must report correct=false.

Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "ivbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Runs a build step, showing its output only if it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        raise SystemExit("ivbench: build step failed: " + " ".join(cmd))


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                  BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "ivbench",
               "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--negative-check", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("ivbench: engine sources (src/) not found next to "
                         "ivbench/")
    try:
        build()
    except subprocess.TimeoutExpired:
        raise SystemExit("ivbench: build timed out")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    if args.negative_check:
        cmd.append("--corrupt-shadow")
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("ivbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
