#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics (README.md, "Steadiness").

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...]

Runs perfbench/run.py once per seed (tracing off, for BENCHMARK.json's
run_seconds), prints each run's result line and then, for every
end-to-end metric, the median of the values and the distance between
their first and third quartiles (statistics.quantiles(values, n=4)) as
a share of that median, next to the metric's bound in BENCHMARK.json.
A metric is marked steady when that spread is below a third of its
bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds.split(","):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", seed, "--seconds", str(seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited with {proc.returncode}")
        last = proc.stdout.rstrip("\n").split("\n")[-1]
        result = json.loads(last)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: {last}", flush=True)

    print(f"{args.workload}: {len(args.seeds.split(','))} runs of "
          f"{seconds} s")
    print(f"{'metric':32} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        mark = "steady" if spread < m["bound"] / 3 else (
            "within bound" if spread <= m["bound"] else "TOO WIDE")
        print(f"{m['name']:32} {med:14.6g} {spread:11.4f} "
              f"{m['bound']:6.2f}  {mark}")


if __name__ == "__main__":
    main()
