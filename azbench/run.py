#!/usr/bin/env python3
"""Build and run the AutomataZoo benchmark.

    python3 azbench/run.py --workload sig_scan --seed 1 --seconds 14 --trace 0

Run from the repository root. The first call configures and builds
azbench (and libazoo from src/) with CMake into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what
changed. All arguments are passed to the azbench binary, whose last
stdout line is the JSON result and whose exit code is returned.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build; output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "azbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        print("azbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "azbench")
    return subprocess.call([binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
