#!/usr/bin/env python3
"""Builds and runs the loopback serving benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
servebench/ (which compiles the library from the checkout) into
$CARGO_TARGET_DIR/servebench, default .bench_build/servebench; later
calls only re-check the build. Build output goes to stderr so that the
benchmark's JSON result stays the last line of stdout.

--selftest runs the rule checks in servebench/tests and a --smoke pass
of every workload, untraced and traced, and fails unless each exits 0
with a correct result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["interactive", "families", "live_updates", "cold_fleet"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "servebench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.stderr.write("servebench: no library sources next to servebench/\n")
        return False
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j4", "--target", "servebench", "servebench_selftest"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("servebench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def selftest(out):
    if subprocess.run([os.path.join(out, "servebench_selftest")]).returncode != 0:
        return 1
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [os.path.join(out, "servebench"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", trace, "--smoke", "--out", out]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            ok = done.returncode == 0 and result.get("correct") is True
            print("smoke %-12s trace=%s: %s" % (workload, trace, "ok" if ok else "FAILED"))
            if not ok:
                sys.stdout.write(done.stdout)
                return 1
    return 0


def main():
    out = build_dir()
    if not build(out):
        return 2
    if sys.argv[1:] == ["--selftest"]:
        return selftest(out)
    cmd = [os.path.join(out, "servebench")] + sys.argv[1:] + ["--out", out]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
