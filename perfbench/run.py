#!/usr/bin/env python3
"""Builds and runs the AtomFS benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fileserver-wire --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The harness is a CMake package of its own (perfbench/CMakeLists.txt) that
builds the repository's sources; it is configured and built into
.bench_build/perfbench on first use. Build output goes to standard error, so
the last line of standard output is the result JSON of the run. The exit
status is nonzero when the build fails (no result is printed), when the run
fails, or when an output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["fileserver-wire", "pipeline-wire", "webproxy-lib", "txn-journal"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; exits 2 on any failure."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            sys.exit(2)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)
    return os.path.join(BUILD_DIR, target)


def run(cmd):
    """Runs `cmd` from the repository root and returns its exit status."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()

    if args.self_test:
        return run([build("perfbench_test")])
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("atomfs_perfbench")
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", BUILD_DIR])


if __name__ == "__main__":
    sys.exit(main())
