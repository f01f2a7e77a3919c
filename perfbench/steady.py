#!/usr/bin/env python3
"""Run-to-run spread of the benchmark on one commit.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                                [--seconds S]

Runs perfbench/run.py end to end once per seed (first-seed, first-seed + 1,
...) for each workload, one run at a time, and prints every metric's median,
first and third quartiles (statistics.quantiles with n=4) and the spread,
the distance between the quartiles as a share of the median.  The spread is
set beside the metric's bound in BENCHMARK.json: a spread above a third of
the bound is flagged, because two sets of runs of the same commit must
agree within the bound.  --seconds defaults to
run_seconds from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def summarize(workload: str, results: list[dict], bounds: dict) -> None:
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"{workload}: {len(results)} runs, correct in {sum(r['correct'] for r in results)}, "
          f"failed {failed}/{attempted}")
    print(f"  {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds[name]
        flag = " !" if spread > bound / 3.0 else ""
        print(f"  {name:12s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
              f"{bound:6.2f} {first['unit']}{flag}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to form quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = [one_run(workload, seed, args.seconds)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        summarize(workload, results, bounds)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
