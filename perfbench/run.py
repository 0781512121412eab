#!/usr/bin/env python3
"""Builds (incrementally) and runs the smartpaf end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-paced --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest        # tests of the benchmark itself

The build goes to .bench_build/perfbench (Release). Build output goes to
stderr, so the last line of stdout stays the benchmark's JSON result. Exits
non-zero without a result when the build fails, e.g. when the library sources
are not next to this directory.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4", "--target", target],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return os.path.join(BUILD, target)


def selftest():
    """The arithmetic tests, plus: the binary reports exactly the metrics
    BENCHMARK.json declares, with the same units."""
    rc = subprocess.run([build("perfbench_selftest")], cwd=ROOT).returncode
    listed = json.loads(subprocess.run([build("perfbench"), "--list-metrics"], cwd=ROOT,
                                       stdout=subprocess.PIPE, text=True, check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in declared[key]]
        got = [(m["name"], m["unit"]) for m in listed[key]]
        ok = want == got
        print("%s BENCHMARK.json %s metrics match the binary" % ("ok  " if ok else "FAIL", key))
        rc = rc or (0 if ok else 1)
    return rc


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    binary = build("perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
