#!/usr/bin/env python3
"""Decay of the first-order expansion remainder with sample size.

Example:
    python scripts/representation_decay.py --model uniform:0,1 --z 1 \
        --sizes 250,500,1000,2000,4000 --reps 300 --seed 5
"""
import argparse

import numpy as np

from takayama import (PovertyConfig, parse_distribution, representation_residual,
                      takayama_population)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", required=True)
    parser.add_argument("--z", type=float, required=True)
    parser.add_argument("--sizes", default="250,500,1000,2000,4000")
    parser.add_argument("--reps", type=int, default=300)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    dist = parse_distribution(args.model)
    config = PovertyConfig(args.z)
    truth = takayama_population(dist, config).value

    print(f"model: {dist.identifier}  Z={args.z}  T={truth:.6f}")
    print(f"{'n':>6}  {'median |rem|':>12}  {'sqrt(n) scaled':>14}")
    for n in (int(tok) for tok in args.sizes.split(",")):
        draws = np.stack([np.random.default_rng(
            np.random.SeedSequence(entropy=args.seed, spawn_key=(n, rep))).random(n)
            for rep in range(args.reps)])
        values = np.asarray(dist.quantile(draws), dtype=float)
        med = float(np.median(np.abs(representation_residual(values, dist, config))))
        print(f"{n:>6}  {med:>12.6f}  {med * np.sqrt(n):>14.4f}")


if __name__ == "__main__":
    main()
