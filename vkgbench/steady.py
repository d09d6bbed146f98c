#!/usr/bin/env python3
"""Steadiness: runs every workload repeatedly and reports the spread.

    python3 vkgbench/steady.py [--runs 10] [--seconds 25] [--workloads a,b] [--first-seed 1]

Run from the repository root. Round i runs every workload once with seed
first-seed + i, rotating which workload goes first, so slow drift of the
machine spreads over all of them. For each workload and metric it prints
the median, the first and third quartiles (Python's
statistics.quantiles, n=4), the quartile spread as a share of the median
and, for end-to-end metrics, the share of the metric's bound in
BENCHMARK.json that spread uses, plus the share of failed operations.
The git revision and the core count head the report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
        return out.stdout.strip() + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    except (OSError, ValueError, KeyError):
        return {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    binary = run.build()
    results = {w: [] for w in workloads}
    for i in range(a.runs):
        seed = a.first_seed + i
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            start = time.monotonic()
            proc = subprocess.run(
                [binary, "--workload", w, "--seed", str(seed), "--seconds", str(a.seconds),
                 "--trace", "0", "--out", os.path.join(HERE, "out")],
                capture_output=True, text=True)
            wall = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{w} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
                return 1
            result["seed"], result["wall_s"] = seed, wall
            results[w].append(result)
            print(f"run {i + 1}/{a.runs} {w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s",
                  file=sys.stderr, flush=True)
    limits = bounds()
    print(f"revision {revision()}  cores {os.cpu_count()}  runs {a.runs}  seconds {a.seconds}")
    for w in workloads:
        rs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print(f"\n{w}: correct {sum(r['correct'] for r in rs)}/{len(rs)}  "
              f"failed shares {shares}  wall median {statistics.median(r['wall_s'] for r in rs):.1f}s")
        print(f"  {'metric':<34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'of bound':>8}")
        for name, first in rs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            of_bound = f"{spread / limits[name]:.2f}" if name in limits else "-"
            print(f"  {name:<34} {first['unit']:>6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {of_bound:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
