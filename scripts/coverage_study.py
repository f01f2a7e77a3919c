#!/usr/bin/env python3
"""Coverage and normality of the index CI across sample sizes.

Example:
    python scripts/coverage_study.py --model uniform:0,1 --z 1 \
        --sizes 250,500,1000,2000 --reps 500 --seed 7
"""
import argparse

import numpy as np

from takayama import (PovertyConfig, ReplicateStudy, ks_normality, parse_mixture,
                      run_replicates, sigma_analytic)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", action="append", required=True)
    parser.add_argument("--weights", default=None)
    parser.add_argument("--z", type=float, required=True)
    parser.add_argument("--sizes", default="250,500,1000,2000")
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    model = parse_mixture(args.model, args.weights)
    config = PovertyConfig(args.z)
    analytic_total = sigma_analytic(model, config).total

    print(f"model: {model.identifier}  Z={args.z}")
    print(f"analytic variance: {analytic_total:.6f}")
    print(f"{'n':>6}  {'coverage':>8}  {'mc var':>9}  {'mean plug':>9}  {'KS':>7}  pass")
    for n in (int(tok) for tok in args.sizes.split(",")):
        study = ReplicateStudy(model, n, args.reps, args.seed, config)
        records = run_replicates(study)
        scaled = records.scaled_deviations(n)
        ks = ks_normality(scaled) if scaled.size >= 100 else None
        print(f"{n:>6}  {records.coverage():>8.4f}  {scaled.var(ddof=1):>9.5f}  "
              f"{float(np.nanmean(records.variances)):>9.5f}  "
              f"{ks.statistic if ks else float('nan'):>7.4f}  "
              f"{ks.passed if ks else '-'}")


if __name__ == "__main__":
    main()
