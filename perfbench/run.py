#!/usr/bin/env python3
"""Builds the live benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The engine and the benchmark are built
with CMake into the directory named by CARGO_TARGET_DIR (default
.bench_build); later runs rebuild incrementally. The last line of standard
output is the run's JSON result; build output and the human-readable
report go to standard error. --self-test builds and runs the checker test,
which feeds the output checks corrupted results.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["live_bench", "checks_test"]
# A run that has not finished by then is stopped and reported as failed.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("run.py: engine sources (src/) not found next to perfbench/; "
                 "run from the root of a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target"] + TARGETS,
    ]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if argv == ["--self-test"]:
        build(build_dir)
        return subprocess.run([os.path.join(build_dir, "checks_test")]).returncode
    build(build_dir)
    # The binary validates its own arguments and prints the result line.
    try:
        return subprocess.run([os.path.join(build_dir, "live_bench")] + argv,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run stopped after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
