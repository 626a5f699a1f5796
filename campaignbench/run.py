#!/usr/bin/env python3
"""Build and run the campaign benchmark on one workload.

    python3 campaignbench/run.py --workload uncore_is --seed 0 --seconds 45 --trace 0

Run from the repository root. Builds the program and the benchmark binary
into .bench_build/campaignbench (CMake, Ninja when present), then replaces
this process with that binary. Build output goes to stderr; the last stdout
line is the JSON result. See campaignbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "campaignbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exp", "driver.hpp")):
        sys.exit("campaignbench: no program sources under %s/src" % ROOT)
    steps = []
    # Configure once; `cmake --build` re-configures when a build file changes.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "campaign_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("campaignbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "campaign_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    binary = build()
    sys.stdout.flush()
    os.execv(binary, [binary,
                      "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--root", ROOT,
                      "--bench-dir", HERE,
                      "--work", os.path.join(BUILD, "work")])


if __name__ == "__main__":
    main()
