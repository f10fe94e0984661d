#!/usr/bin/env python3
"""Build and run the OABLAS benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds `oabench` (Release) from the checkout's own sources into
`.bench_build/`; later calls rebuild incrementally. oabench's output
is passed through; its last line is one JSON object whose metric names
are checked against BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1). Exits non-zero if the build, the run or
that check fails; oabench's own output, including a result line that is
not correct, is still passed through.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "oabench")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "oabench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_names(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"oabench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        # Passed through as printed: a result line that is not correct
        # stays visible, but the run fails.
        print(proc.stdout, end="", flush=True)
        fail(f"oabench exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    if body:
        print("\n".join(body))
    try:
        result = json.loads(last)
    except ValueError:
        fail("oabench printed no result line")
    names = list(result.get("metrics", {}))
    want = expected_names(args.trace)
    if sorted(names) != sorted(want):
        missing = sorted(set(want) - set(names))
        extra = sorted(set(names) - set(want))
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}")
    print(last, flush=True)


if __name__ == "__main__":
    main()
