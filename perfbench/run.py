#!/usr/bin/env python3
"""Builds and runs the schemexd end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the schemex sources one directory up in Release mode. The
build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
the build log next to it, and the workspaces a run writes (plus the span
trace of a --trace 1 run) to $CARGO_TARGET_DIR/perfbench-work. The last
line on standard output is the benchmark's JSON result; a failed build,
a failed check or a run past the time limit exits non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "schemex_perfbench"
RUN_TIMEOUT_S = 170


def build(build_dir, log_path):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", TARGET,
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                return False
    return True


def main():
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(out_root, "perfbench-build.log")
    if not build(build_dir, log_path):
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
        return 1
    cmd = [os.path.join(build_dir, TARGET)] + sys.argv[1:] + [
        "--work-dir", os.path.join(out_root, "perfbench-work")]
    try:
        return subprocess.run(cmd, stdin=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
