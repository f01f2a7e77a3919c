import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from takayama import (IncomeSample, NumericalError, PovertyConfig, build_empirical,
                      exponential, lognormal, mixture, pareto, standardize,
                      uniform)

incomes = st.lists(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=60)


def test_build_sorts_and_averages():
    dist = build_empirical(IncomeSample([3.0, 1.0, 2.0]))
    assert dist.sorted_values.tolist() == [1.0, 2.0, 3.0]
    assert dist.mean == 2.0
    assert dist.size == 3


def test_build_single_value():
    dist = build_empirical(IncomeSample([5.0]))
    assert dist.sorted_values.tolist() == [5.0]
    assert dist.mean == 5.0


def test_build_applies_equivalence_divisors():
    sample = IncomeSample([10.0, 6.0], equivalence_divisors=[2.0, 3.0])
    dist = build_empirical(sample)
    assert dist.sorted_values.tolist() == [2.0, 5.0]
    assert dist.mean == 3.5


def test_build_rejects_empty_and_degenerate():
    with pytest.raises(ValueError, match="empty sample"):
        build_empirical(IncomeSample([]))
    with pytest.raises(NumericalError, match="degenerate sample mean"):
        build_empirical(IncomeSample([0.0, 0.0]))


def test_build_rejects_mean_that_underflows_to_zero():
    # The exact sum is 5e-324, but the sorted mean halves it to 0.
    with pytest.raises(NumericalError, match="degenerate sample mean"):
        build_empirical(IncomeSample([0.0, 5e-324]))


def test_income_sample_validation():
    with pytest.raises(ValueError):
        IncomeSample([-1.0])
    with pytest.raises(ValueError):
        IncomeSample([1.0, 2.0], equivalence_divisors=[1.0])
    with pytest.raises(ValueError):
        IncomeSample([1.0], equivalence_divisors=[0.0])
    with pytest.raises(ValueError):
        IncomeSample([1.0, 2.0], group_labels=["a"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_income_sample_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        IncomeSample([1.0, bad, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_income_sample_rejects_non_finite_divisors(bad):
    with pytest.raises(ValueError, match="finite"):
        IncomeSample([1.0, 2.0], equivalence_divisors=[1.0, bad])


@given(incomes, st.randoms())
def test_permutation_equivariance(values, shuffler):
    if np.sort(values).mean() == 0.0:  # the mean build_empirical rejects
        values = [v + 1.0 for v in values]
    shuffled = list(values)
    shuffler.shuffle(shuffled)
    a = build_empirical(IncomeSample(values))
    b = build_empirical(IncomeSample(shuffled))
    assert np.array_equal(a.sorted_values, b.sorted_values)
    assert a.mean == b.mean
    assert a.size == b.size


@pytest.mark.parametrize("dist", [
    uniform(0.0, 1.0), uniform(2.0, 7.0), exponential(1.0), exponential(0.25),
    lognormal(0.0, 1.0), lognormal(1.0, 0.5), pareto(1.0, 3.0),
])
def test_cdf_quantile_identity_on_grid(dist):
    s = (np.arange(1000) + 0.5) / 1000
    x = np.asarray(dist.quantile(s), dtype=float)
    back = np.asarray(dist.cdf(x), dtype=float)
    assert np.max(np.abs(back - s)) < 1e-10


def test_mixture_cdf_quantile_identity():
    mix = mixture([exponential(1.0), exponential(0.5)], [0.3, 0.7])
    s = (np.arange(500) + 0.5) / 500
    x = np.asarray(mix.quantile(s), dtype=float)
    back = np.asarray(mix.cdf(x), dtype=float)
    assert np.max(np.abs(back - s)) < 1e-10
    assert mix.mean == pytest.approx(0.3 * 1.0 + 0.7 * 2.0)


@pytest.mark.parametrize("dist", [
    uniform(0.0, 1.0), exponential(1.0), lognormal(0.0, 1.0), pareto(1.0, 3.0),
    mixture([uniform(0.0, 2.0), exponential(1.0), pareto(1.0, 3.0)], [0.3, 0.3, 0.4]),
], ids=lambda dist: dist.identifier)
def test_quantile_endpoints_emit_no_warning(dist):
    # Q(0) is the lower support end and Q(1) the upper one, inf included.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = float(dist.quantile(0.0)), float(dist.quantile(1.0))
        both = np.asarray(dist.quantile(np.array([0.0, 1.0])), dtype=float)
    assert (lo, hi) == dist.support
    assert both.tolist() == [lo, hi]


def test_mixture_parts():
    law = exponential(1.0)
    assert law.parts == ((1.0, law),)
    assert mixture([law], [1.0]) is law
    inner = mixture([law, uniform(0.0, 1.0)], [0.5, 0.5])
    outer = mixture([inner, pareto(1.0, 3.0)], [0.4, 0.6])
    assert [(w, part.identifier) for w, part in outer.parts] == [
        (0.2, "exponential(1)"), (0.2, "uniform(0,1)"), (0.6, "pareto(1,3)")]


def test_poor_mask_strictness():
    dist = build_empirical(IncomeSample([1.0, 2.0, 3.0]))
    assert np.count_nonzero(PovertyConfig(2.0).poor_mask(dist.sorted_values)) == 2
    strict = PovertyConfig(2.0, strict_comparison=True)
    assert np.count_nonzero(strict.poor_mask(dist.sorted_values)) == 1


def test_poverty_config_validation():
    with pytest.raises(ValueError):
        PovertyConfig(0.0)
    with pytest.raises(ValueError):
        PovertyConfig(1.0, confidence_level=1.0)


def test_poverty_config_rejects_infinite_line():
    with pytest.raises(ValueError, match="finite"):
        PovertyConfig(math.inf)


def test_standardize_degenerate():
    with pytest.raises(NumericalError):
        standardize(np.ones(10))


def test_immutability():
    dist = build_empirical(IncomeSample([1.0, 2.0]))
    with pytest.raises(ValueError):
        dist.sorted_values[0] = 7.0
