#!/usr/bin/env python3
"""Builds and runs the ParRec end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sw_db --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later runs only re-check the build. Every
file the build and the run write stays under .bench_build: the
temporary directory of the compilers (TMPDIR) and the private JIT
caches, which are deleted when the run ends. The benchmark's standard
output is passed through unchanged, so its last line is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sw_db", "profile_forward", "sw_long", "serve_mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, env):
    """Configures (once) and builds the benchmark; returns the binary."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "parbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "parbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the root of a ParRec checkout (missing %s)" % needed)

    work = os.path.join(root, ".bench_build")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(root, os.path.join(work, "perfbench"), env)

    scratch = os.path.join(work, "scratch-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scratch", scratch]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
