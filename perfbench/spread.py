#!/usr/bin/env python3
"""Run one workload on several seeds and report how much each metric spreads.

    python3 perfbench/spread.py --workload gen-cold [--runs 10] [--first-seed 1]

Run from the root of a checkout. Uses the command, run length and bounds in
BENCHMARK.json. For each end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles as a share of that
median, beside a third of the metric's bound (the steadiness target).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = done.stdout.rstrip("\n").split("\n")[-1]
        if done.returncode != 0 or not last.startswith("{"):
            sys.stderr.write("seed %d failed (exit %d)\n" % (seed, done.returncode))
            return 1
        result = json.loads(last)
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    worst = 0.0
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        target = m.get("bound", 0.0) / 3
        flag = "" if "bound" not in m or spread < target else "  <-- over a third of its bound"
        if "bound" in m:
            worst = max(worst, spread / m["bound"])
        print("%-24s median %14.6g  spread %.4f  target %.4f%s" % (
            m["name"], med, spread, target, flag))
        print("    " + " ".join("%.4g" % x for x in v))
    print("worst spread / bound: %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
