#!/usr/bin/env python3
"""Build nlc_perfbench from source, then run one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload epoch-redis --seed 1 --seconds 25 --trace 0

The arguments go to nlc_perfbench unchanged (see nlc_perfbench.cpp). It
is configured and built under .bench_build/perfbench; later runs reuse
the build. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero without a result when the build
or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def main():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                        "nlc_perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "nlc_perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
