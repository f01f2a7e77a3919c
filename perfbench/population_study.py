"""Population study of an analytic mixture, run in a fresh process.

Computes what scripts/gap_study.py computes before its Monte Carlo part:
the population index and its limiting variance for the pooled mixture,
then the population decomposability gap and its variance across the
mixture's components.  Prints one JSON object.

    python3 perfbench/population_study.py --z 1 \
        --component uniform:0,1=0.3 --component exponential:1=0.3 \
        --component lognormal:0,0.8=0.4
"""
from __future__ import annotations

import argparse
import json


def study(components, line: float) -> dict:
    """components: (label, AnalyticDistribution, weight) triples."""
    from takayama import (PovertyConfig, analytic_partition, decomposability_gap,
                          gap_variance, mixture, sigma_analytic, takayama_population)

    config = PovertyConfig(line)
    pooled = mixture([dist for _, dist, _ in components], [w for _, _, w in components])
    index = takayama_population(pooled, config).value
    sigma = sigma_analytic(pooled, config)
    part = analytic_partition(components)
    estimate = decomposability_gap(part, config)
    theta = gap_variance(part, config)
    return {
        "index": index,
        "sigma1_sq": sigma.sigma1_sq,
        "sigma2_sq": sigma.sigma2_sq,
        "sigma12": sigma.sigma12,
        "variance": sigma.total,
        "global_index": estimate.global_index,
        "local_indices": list(estimate.local_indices),
        "weights": list(estimate.weights),
        "gap": estimate.gap,
        "theta1_sq": theta.theta1_sq,
        "theta2_sq": theta.theta2_sq,
        "theta3_sq": theta.theta3_sq,
        "gap_variance": theta.gap_centered_total,
    }


def parse_components(specs) -> list[tuple[str, str, float]]:
    """"family:params=weight" strings into (label, spec, weight)."""
    out = []
    for k, text in enumerate(specs):
        spec, _, weight = text.rpartition("=")
        out.append((str(k), spec, float(weight)))
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--component", action="append", required=True)
    parser.add_argument("--z", type=float, required=True)
    return parser.parse_args(argv)


def main() -> None:
    args = parse_args()
    from takayama import parse_distribution
    components = [(label, parse_distribution(spec), weight)
                  for label, spec, weight in parse_components(args.component)]
    print(json.dumps(study(components, args.z), sort_keys=True))


if __name__ == "__main__":
    main()
