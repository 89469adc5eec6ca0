#!/usr/bin/env python3
"""Builds and runs the repo benchmark from the root of a checkout.

    python3 repobench/run.py --workload venue_walk --seed 1 --seconds 10 --trace 0

Builds the benchmark program in repobench/ against the repository's rmi
library target into .bench_build/repobench (CMake, Release), then runs one
workload. The
program's last stdout line is the JSON result; its exit code is passed
through. Exits 2 without a result when the sources or the toolchain are
missing.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("venue_walk", "mall_burst", "venue_refresh")


def fail(message):
    print("repobench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, env):
    """Configures once, then builds incrementally; logs go to stderr."""
    source_dir = os.path.join(root, "repobench")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--", "-j4"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                env=env)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "repobench")
    if not os.path.isfile(binary):
        fail("build produced no benchmark binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(root, "src", "la", "quant.cc"))):
        fail("no library build under the current directory"
             " (run from the repository root)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(root, ".bench_build", "repobench")
    tmp_dir = os.path.join(root, ".bench_build", "tmp-%d" % os.getpid())
    # Compiler temporaries stay in the checkout; the run itself writes no
    # file.
    env = dict(os.environ, TMPDIR=tmp_dir)
    os.makedirs(tmp_dir, exist_ok=True)
    try:
        binary = build(root, build_dir, env)
        sys.stdout.flush()
        result = subprocess.run([
            binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
