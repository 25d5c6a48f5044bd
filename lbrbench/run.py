#!/usr/bin/env python3
"""Builds the LBR pipeline benchmark from source and runs one workload.

Usage, from the root of a checkout:
  python3 lbrbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The engine library and the benchmark binary build into $CARGO_TARGET_DIR/lbrbench
(default .bench_build/lbrbench) with the repository's own CMake definition;
build output goes to stderr. The binary's stdout passes through unchanged:
its last line is the result object. The exit code is the binary's, or 1
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "lbrbench")


def build():
    """Configures and builds the binary; returns its path, or None on failure."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "lbrbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "lbrbench")


def main():
    binary = build()
    if binary is None:
        print("lbrbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    try:
        return subprocess.run([binary, *sys.argv[1:], "--workdir", workdir],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("lbrbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
