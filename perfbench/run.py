#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The benchmark is built with dune
into the tree's _build directory (the shared dune cache is off, so the
build writes nothing outside the tree). The workload's JSON result is
the last line of standard output; the exit code is the benchmark's, or
2 when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet",
         "./perfbench/main.exe"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("perfbench: build failed\n" + build.stderr[-4000:])
        return 2
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
