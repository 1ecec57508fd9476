#!/usr/bin/env python3
"""Builds the WARio benchmark in Release and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload compile-matrix --seed 1 \
        --seconds 10 --trace 0

The build tree lives under $CARGO_TARGET_DIR (default .bench_build) in the
current directory. Build output goes to stderr; the benchmark's report,
ending in one JSON line, goes to stdout. Any build failure exits non-zero
without a report.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = "wario_perfbench"


def build(build_dir):
    def step(cmd):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(2)

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if _have("ninja") else []
        step(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"] + gen)
    step(["cmake", "--build", build_dir, "--target", TARGET, "-j", "4"])


def _have(prog):
    return any(os.access(os.path.join(d, prog), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def main():
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    build(build_dir)
    exe = os.path.join(build_dir, TARGET)
    # The benchmark's scratch files (socket, spans, determinism digests)
    # stay in its build tree, inside the checkout. The path is relative so
    # the socket path fits sockaddr_un.
    r = subprocess.run([exe, "--workdir", os.path.relpath(build_dir)] +
                       sys.argv[1:])
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
