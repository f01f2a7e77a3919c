"""The 1-D influence quadratures of the population functionals against the
nested-quadrature oracle, and their cost on nearby laws."""
from dataclasses import replace

import numpy as np
import pytest

from takayama import (AnalyticDistribution, PovertyConfig, analytic_partition,
                      exponential, gap_variance, lognormal, mixture, pareto,
                      sigma_analytic, takayama_population, uniform)

from _oracles import nested_gap_variance_oracle, nested_index_oracle, nested_sigma_oracle

PARITY = 1e-8

# (components, weights, poverty line)
MIXTURES = {
    "benchmark mixture": ((uniform(0.0, 1.0), exponential(1.0), lognormal(0.0, 0.8)),
                          (0.3, 0.3, 0.4), 0.5),
    "three groups": ((exponential(1.0), exponential(0.5), uniform(0.0, 2.0)),
                     (0.5, 0.3, 0.2), 1.0),
    # the uniform's upper end 0.6 lies inside the poor range of the others
    "support end below the line": ((uniform(0.0, 0.6), exponential(1.0)), (0.4, 0.6), 1.0),
    "group with no poor": ((pareto(1.0, 3.0), exponential(1.0), uniform(0.0, 1.0)),
                           (0.3, 0.3, 0.4), 0.5),
}


@pytest.mark.parametrize("case", sorted(MIXTURES))
def test_population_functionals_match_nested_oracle(case):
    components, weights, line = MIXTURES[case]
    config = PovertyConfig(line)
    pooled = mixture(components, weights)
    part = analytic_partition(list(zip("abc", components, weights)))

    sigma = sigma_analytic(pooled, config)
    oracle = nested_sigma_oracle(pooled, config)
    thetas = gap_variance(part, config)
    nested = nested_gap_variance_oracle(part, config)
    pairs = [
        (takayama_population(pooled, config).value, nested_index_oracle(pooled, config)),
        (sigma.sigma1_sq, oracle.sigma1_sq), (sigma.sigma2_sq, oracle.sigma2_sq),
        (sigma.sigma12, oracle.sigma12),
        (thetas.theta1_sq, nested.theta1_sq), (thetas.theta2_sq, nested.theta2_sq),
        (thetas.theta3_sq, nested.theta3_sq),
    ]
    for ours, theirs in pairs:
        assert abs(ours - theirs) <= PARITY


def test_mixture_group_gap_variance_matches_nested_oracle():
    # Group "m" is itself a mixture: its law is a block of two of the
    # pooled components.
    config = PovertyConfig(1.0)
    part = analytic_partition([
        ("m", mixture([exponential(1.0), uniform(0.0, 2.0)], [0.5, 0.5]), 0.6),
        ("l", lognormal(0.0, 0.8), 0.4)])
    thetas = gap_variance(part, config)
    nested = nested_gap_variance_oracle(part, config)
    assert thetas.theta1_sq > 1e-3
    assert abs(thetas.theta1_sq - nested.theta1_sq) <= PARITY
    assert abs(thetas.theta2_sq - nested.theta2_sq) <= PARITY
    assert abs(thetas.theta3_sq - nested.theta3_sq) <= PARITY


def test_groups_sharing_one_law_object_have_vanishing_thetas():
    # The shared law is a component of the pooled law once per group.
    law = exponential(1.0)
    thetas = gap_variance(analytic_partition([("a", law, 0.5), ("b", law, 0.5)]),
                          PovertyConfig(1.0))
    assert abs(thetas.theta1_sq) < 1e-12
    assert abs(thetas.theta2_sq) < 1e-12
    assert abs(thetas.theta3_sq) < 1e-12


@pytest.mark.parametrize("dist", [uniform(0.0, 1.0), uniform(0.5, 3.0), exponential(0.5),
                                  lognormal(0.0, 0.75), pareto(0.25, 3.5)],
                         ids=lambda dist: dist.identifier)
def test_plain_law_sigma_matches_nested_oracle(dist):
    config = PovertyConfig(1.0)
    ours = sigma_analytic(dist, config)
    theirs = nested_sigma_oracle(dist, config)
    assert abs(ours.sigma1_sq - theirs.sigma1_sq) <= PARITY
    assert abs(ours.sigma2_sq - theirs.sigma2_sq) <= PARITY
    assert abs(ours.sigma12 - theirs.sigma12) <= PARITY
    assert abs(takayama_population(dist, config).value
               - nested_index_oracle(dist, config)) <= PARITY


def test_mixture_functionals_never_invert_the_mixture_cdf():
    def refuse(s):
        raise AssertionError("mixture quantile called")

    pooled = replace(mixture([uniform(0.0, 1.0), lognormal(0.0, 0.8)], [0.5, 0.5]),
                     quantile=refuse)
    config = PovertyConfig(1.0)
    takayama_population(pooled, config)
    sigma_analytic(pooled, config)


def _counted(dist: AnalyticDistribution, nodes: list) -> AnalyticDistribution:
    def cdf(x):
        nodes.append(np.size(x))
        return dist.cdf(x)

    def quantile(u):
        nodes.append(np.size(u))
        return dist.quantile(u)

    return AnalyticDistribution(cdf, quantile, dist.mean, dist.identifier,
                                dist.support, dist.second_moment)


def _analytic_nodes(components, weights) -> int:
    """Nodes at which sigma_analytic and gap_variance evaluate the
    component CDFs and quantiles, at Z = 1."""
    nodes = []
    laws = [_counted(dist, nodes) for dist in components]
    config = PovertyConfig(1.0)
    sigma_analytic(mixture(laws, weights), config)
    gap_variance(analytic_partition(list(zip("abc", laws, weights))), config)
    return sum(nodes)


def test_nearby_mixture_costs_at_most_twice_the_nodes():
    # Moving every parameter by at most 4% once turned seconds of nested
    # quadrature into minutes; the 1-D route's work must stay put.
    base = _analytic_nodes((uniform(0.0, 1.0), exponential(1.0), lognormal(0.0, 0.8)),
                           (0.3, 0.3, 0.4))
    moved = _analytic_nodes((uniform(0.0, 0.961412), exponential(1.035336),
                             lognormal(0.0, 0.804085)), (0.289875, 0.316558, 0.393567))
    assert moved <= 2 * base


def test_unknown_second_moment_takes_the_tail_quadrature():
    config = PovertyConfig(1.0)
    for dist in (exponential(0.8), lognormal(0.0, 0.6), pareto(0.5, 4.0)):
        bare = replace(dist, second_moment=None)
        ours, closed = sigma_analytic(bare, config), sigma_analytic(dist, config)
        assert ours.sigma1_sq == pytest.approx(closed.sigma1_sq, abs=PARITY)
        assert ours.sigma2_sq == closed.sigma2_sq
        assert ours.sigma12 == closed.sigma12


def test_strict_comparison_leaves_an_atom_at_the_line_out_of_the_poor():
    # Atoms at 1 and 2, mass 1/2 each, and Z = 1: under strict comparison
    # nobody is poor, so T = 1 and the variance vanishes exactly.
    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 2.0, 1.0, np.where(x >= 1.0, 0.5, 0.0))

    def quantile(s):
        return np.where(np.asarray(s, dtype=float) <= 0.5, 1.0, 2.0)

    atoms = AnalyticDistribution(cdf, quantile, 1.5, "atoms(1,2)", support=(1.0, 2.0),
                                 second_moment=2.5)
    strict = PovertyConfig(1.0, strict_comparison=True)
    assert takayama_population(atoms, strict).value == 1.0
    assert sigma_analytic(atoms, strict).total == 0.0
    assert takayama_population(atoms, PovertyConfig(1.0)).value == 0.5
