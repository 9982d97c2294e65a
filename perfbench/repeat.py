#!/usr/bin/env python3
"""Runs each workload repeatedly and reports how steady each metric is.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1]

Run from the root of a checkout. Reads BENCHMARK.json for the workloads,
the run length and the bounds, runs every workload once per seed (seeds
interleaved across workloads, so all of them see the same host weather),
prints each run's attempted and failed operations, and prints per
workload and end-to-end metric (with its unit) the median, the first and
third quartiles, and the spread (Q3 - Q1) / median next to the metric's
bound: "steady" when the spread is below a third of the bound, "fits"
when it is within the bound, "WIDE" otherwise. It also prints the share
of failed operations of every run. Each run's report (standard error) is
kept in .bench_out/logs/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    os.makedirs(os.path.join(".bench_out", "logs"), exist_ok=True)
    log = os.path.join(".bench_out", "logs", f"{workload}-seed{seed}.log")
    with open(log, "w") as err:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            r = run_once(w, seed, seconds)
            status = "no result" if r is None else (
                ("correct" if r["correct"] else "INCORRECT") +
                f", attempted {r['attempted']}, failed {r['failed']}")
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: {status}",
                  file=sys.stderr, flush=True)
            if r is not None:
                results[w].append(r)

    ok = True
    for w in workloads:
        runs = results[w]
        print(f"\n== {w}: {len(runs)}/{args.runs} runs with a result, "
              f"{sum(r['correct'] for r in runs)} correct")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"   failed share per run: {shares}")
        ok = ok and len(runs) == args.runs and all(r["correct"] for r in runs)
        if len(runs) < 2:
            continue
        print(f"   {'metric':20} {'unit':>12} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            bound = m["bound"]
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "fits"
            else:
                verdict = "WIDE"
                ok = False
            print(f"   {m['name']:20} {m['unit']:>12} {med:14.4f} {q1:14.4f} "
                  f"{q3:14.4f} {spread:8.4f} {bound:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
