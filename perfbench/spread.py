#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,3] [--seconds N] [--trace 0|1]

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound from
BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", seed,
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: correctness check failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = f"{(q3 - q1) / abs(med):.4f}"
        else:
            spread = "-"
        print(f"{name:<32} median {med:<14.6g} {units[name]:<8} spread {spread:<8} bound {bounds.get(name)}")


if __name__ == "__main__":
    main()
