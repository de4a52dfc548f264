#!/usr/bin/env python3
"""Check that the benchmark repeats: run each workload over several seeds
and compare each end-to-end metric's spread with its bound.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median.  Exits 1
if any spread exceeds its metric's bound in BENCHMARK.json, or any run
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    ok = True
    for wl in args.workloads:
        values = {}
        for i in range(args.runs):
            cmd = bench["command"] + [
                "--workload", wl,
                "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if res is None or not res["correct"] or res["failed"]:
                print("%s seed %d: run failed" % (wl, args.first_seed + i))
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            xs = values.get(metric["name"], [])
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            bad = spread > metric["bound"]
            ok = ok and not bad
            print("%-14s %-12s median %-12.6g spread %.3f bound %.2f%s  [%s]" % (
                wl, metric["name"], med, spread, metric["bound"], "  OVER" if bad else "",
                " ".join("%.4g" % x for x in xs)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
