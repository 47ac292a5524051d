#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The build goes to .bench_build/perfbench under the repository root (CMake,
Release); its output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Exits non-zero, without a result,
when the sources are missing or the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: the opsched sources are not next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def check_benchmark_json():
    """BENCHMARK.json must name exactly the metrics the binary reports."""
    listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    names = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        names[kind].append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for kind in names:
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != names[kind]:
            print(f"FAIL BENCHMARK.json {kind} differs from the binary: "
                  f"{declared} != {names[kind]}")
            ok = False
    print(("ok   " if ok else "FAIL ") + "BENCHMARK.json names every reported metric")
    return ok


def check_injected_mismatch():
    """A train_fine run with one perturbed expected checksum must fail it."""
    out = subprocess.run([BINARY, "--workload", "train_fine", "--seed", "1", "--seconds", "0",
                          "--trace", "0", "--inject-mismatch"], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip().split("\n")
    result = json.loads(out[-1])
    ok = (result["failed"] == 1 and not result["correct"]
          and abs(result["metrics"]["ok_frac"]["value"] - (1 - 1 / result["attempted"])) < 1e-12)
    print(("ok   " if ok else "FAIL ") + "an injected checksum mismatch raises fail_frac")
    return ok


def main():
    build()
    if "--self-test" in sys.argv[1:]:
        code = subprocess.run([BINARY, "--self-test"], cwd=ROOT).returncode
        if code != 0:
            return code
        return 0 if check_benchmark_json() and check_injected_mismatch() else 1
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
