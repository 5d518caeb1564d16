#!/usr/bin/env python3
"""Builds the limsynth reproduction benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds perfbench/
(a CMake project over ../src) into $CARGO_TARGET_DIR, default .bench_build,
then runs the workload. Build output goes to stderr; the last line of stdout
is the run's JSON result. Traces and temporary files stay under the build
directory. Workloads: fig6_spgemm, sram_flow, brick_golden, dse_yield.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig6_spgemm", "sram_flow", "brick_golden", "dse_yield")


def build(build_root):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no limsynth sources in %s/src" % ROOT)
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output per pass (oracle self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)
    work_dir = os.path.join(build_root, "perfbench-runs",
                            "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work-dir", work_dir]
    if args.corrupt:
        cmd.append("--corrupt")
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    try:
        os.rmdir(work_dir)  # kept only when it holds traces
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
