#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, compared.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs N]

Each set makes N runs of every workload in BENCHMARK.json (set A on seeds
1..N, set B on seeds N+1..2N), through the command and at the run length
BENCHMARK.json names. For every workload and end-to-end metric it prints
both medians, their signed difference as a share of set A's median, the
spread of each set (interquartile range over the median) and whether the
two medians agree: the difference, in either direction, is within the
metric's bound.
It also checks that every run was correct and that the failed share of
operations is identical across runs. Exits 1 when anything disagrees.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for base in (1, args.runs + 1):
            results = [run_once(spec, workload, seed)
                       for seed in range(base, base + args.runs)]
            sets.append(results)
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        correct = all(r["correct"] for s in sets for r in s)
        ok = ok and correct and len(shares) == 1
        print("%s: correct=%s failed-share=%s" % (workload, correct, sorted(shares)))
        print("  %-16s %14s %14s %8s %8s %8s %6s  %s" %
              ("metric", "median A", "median B", "B-A", "sprd A", "sprd B", "bound", "agree"))
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in sets[0]]
            b = [r["metrics"][m["name"]]["value"] for r in sets[1]]
            ma, mb = statistics.median(a), statistics.median(b)
            diff = (mb - ma) / ma
            agree = abs(diff) <= m["bound"]
            ok = ok and agree
            print("  %-16s %14.6g %14.6g %+8.4f %8.4f %8.4f %6.2f  %s" %
                  (m["name"], ma, mb, diff, spread(a), spread(b), m["bound"],
                   "yes" if agree else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
