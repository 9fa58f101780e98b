#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload campaign|predict|serve \
        [--seed N] [--seconds S] [--trace 0|1]

The binary and the gpuperf libraries it links are configured and built in
Release under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits nonzero without a
result when the build fails (e.g. the gpuperf sources are missing) or any
correctness check fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [binary] + sys.argv[1:] + [
        "--reference", os.path.join(HERE, "reference.txt"),
        "--work-dir", os.path.join(build_dir, "work")]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
