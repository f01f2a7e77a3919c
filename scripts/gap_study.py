#!/usr/bin/env python3
"""Decomposability gap of a mixture: population value, limiting variance,
and a Monte Carlo check of both.

Example:
    python scripts/gap_study.py --model exponential:1 --model exponential:0.5 \
        --weights 0.5,0.5 --z 1 --n 5000 --reps 1000 --seed 11
"""
import argparse

import numpy as np

from takayama import (PovertyConfig, ReplicateStudy, analytic_partition,
                      decomposability_gap, gap_variance, parse_mixture, run_replicates)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", action="append", required=True)
    parser.add_argument("--weights", default=None)
    parser.add_argument("--z", type=float, required=True)
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    model = parse_mixture(args.model, args.weights)
    config = PovertyConfig(args.z)

    part = analytic_partition([(str(i), law, w) for i, (w, law) in enumerate(model.parts)])
    estimate = decomposability_gap(part, config)
    variance = gap_variance(part, config)
    print(f"mixture: {model.identifier}  Z={args.z}")
    for grp, local in zip(part.groups, estimate.local_indices):
        print(f"  group {grp.label} ({grp.dist.identifier}): T = {local:.6f}")
    print(f"global T = {estimate.global_index:.6f}")
    print(f"population gap gd = {estimate.gap:.6f}")
    print(f"theta1^2 = {variance.theta1_sq:.6f}  theta2^2 = {variance.theta2_sq:.6f}  "
          f"theta3^2 = {variance.theta3_sq:.6f}")
    print(f"Var sqrt(n)(gd_n - gd)  = {variance.gap_centered_total:.6f}")
    print(f"Var sqrt(n)(gd_n - gd0) = {variance.mixed_centered_total:.6f}")

    study = ReplicateStudy(model, args.n, args.reps, args.seed, config)
    records = run_replicates(study, target="gap", compute_variance=False)
    scaled = records.scaled_deviations(args.n)
    print(f"Monte Carlo ({args.reps} reps at n={args.n}): "
          f"mean gd_n = {float(np.nanmean(records.values)):.6f}, "
          f"Var sqrt(n)(gd_n - gd) = {float(np.mean(scaled ** 2)):.6f}")


if __name__ == "__main__":
    main()
