#!/usr/bin/env python3
"""Builds cpqbench from this checkout's sources, then runs one workload.

Usage, from the root of a checkout:

    python3 cpqbench/run.py --workload <mem-mix|file-b0|paper-lru|mirror-tail> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ at the checkout root (Release, with Ninja
when it is installed); the first run configures and compiles, later runs
only check that the build is current. Build output goes to standard error.
The arguments are handed to the benchmark binary unchanged; its standard
output ends with the one-line JSON result. A failed build exits with
status 2 and prints no result.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build")
    configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for step in (configure,
                 ["cmake", "--build", build_dir, "--target", "cpqbench",
                  "-j", jobs]):
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print("cpqbench: build failed", file=sys.stderr)
            return 2
    binary = os.path.join(build_dir, "cpqbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
