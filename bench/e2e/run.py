#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the repository root:

    python3 bench/e2e/run.py --workload cpu-fig11 --seed 7 --seconds 25 --trace 0

Configures bench/e2e as a Release CMake project in .bench_build, builds
dlion_bench and dlion_bench_traced there (build output goes to stderr), then
replaces itself with dlion_bench, which measures the workload for about
--seconds seconds and prints one JSON result line last on stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Outside a DLion source tree the configure step fails and nothing is printed
on stdout.
"""
import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
SOURCE_DIR = os.path.join("bench", "e2e")
TARGETS = ["dlion_bench", "dlion_bench_traced"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    configure = ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    build = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + TARGETS
    for cmd in (configure, build):
        rc = subprocess.call(cmd, stdout=sys.stderr)
        if rc != 0:
            print(f"run.py: {' '.join(cmd)} failed ({rc})", file=sys.stderr)
            return rc if rc > 0 else 1

    exe = os.path.join(BUILD_DIR, "dlion_bench")
    os.execv(exe, [exe, f"--workload={args.workload}", f"--seed={args.seed}",
                   f"--seconds={args.seconds}", f"--trace={args.trace}"])


if __name__ == "__main__":
    sys.exit(main())
