import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from takayama import (IncomeSample, PovertyConfig, build_empirical, fgt_index, pareto,
                      takayama_empirical, takayama_population, uniform)

positive_incomes = st.lists(
    st.floats(0.01, 1e4, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=50)


def t_direct(values, z):
    """Literal transcription of the L-statistic, as an independent check."""
    xs = sorted(values)
    n = len(xs)
    mu = math.fsum(xs) / n
    q = sum(1 for v in xs if v <= z)
    weighted = math.fsum((n - j + 1) * xs[j - 1] for j in range(1, q + 1))
    return 1 + 1 / n - 2 * weighted / (mu * n * n)


def test_exact_small_samples():
    cfg10 = PovertyConfig(10.0)
    assert takayama_empirical(build_empirical(IncomeSample([5.0])), cfg10).value == 0.0
    cfg2 = PovertyConfig(2.0)
    assert takayama_empirical(build_empirical(IncomeSample([3.0, 7.0])), cfg2).value == 1.5
    assert takayama_empirical(build_empirical(IncomeSample([1.0, 3.0])), cfg2).value == 1.0


def test_no_poor_gives_one_plus_inverse_n():
    cfg = PovertyConfig(0.5)
    for n in (1, 2, 7, 40):
        dist = build_empirical(IncomeSample(np.linspace(1.0, 2.0, n)))
        assert takayama_empirical(dist, cfg).value == pytest.approx(1 + 1 / n, abs=1e-15)


@given(positive_incomes, st.floats(0.1, 1e4))
def test_matches_direct_formula(values, z):
    dist = build_empirical(IncomeSample(values))
    got = takayama_empirical(dist, PovertyConfig(z)).value
    assert got == pytest.approx(t_direct(values, z), rel=1e-12, abs=1e-12)


@given(positive_incomes, st.floats(0.1, 100.0), st.integers(-20, 20))
def test_scale_invariance(values, z, power):
    c = 2.0 ** power
    base = takayama_empirical(build_empirical(IncomeSample(values)),
                              PovertyConfig(z)).value
    scaled = takayama_empirical(
        build_empirical(IncomeSample([c * v for v in values])),
        PovertyConfig(c * z)).value
    # powers of two rescale exactly; a general factor only to rounding
    assert scaled == pytest.approx(base, rel=1e-12, abs=1e-12)


@given(positive_incomes, st.floats(0.1, 1e4))
def test_upper_bound(values, z):
    dist = build_empirical(IncomeSample(values))
    value = takayama_empirical(dist, PovertyConfig(z)).value
    assert value <= 1 + 1 / dist.size + 1e-12


def test_gini_coincidence_all_poor(rng):
    """With every observation poor the index equals the sample Gini form."""
    for _ in range(100):
        n = int(rng.integers(1, 51))
        values = rng.uniform(0.1, 5.0, n)
        z = values.max() + 1.0
        dist = build_empirical(IncomeSample(values))
        t_val = takayama_empirical(dist, PovertyConfig(z)).value
        ranks = np.arange(1, n + 1)
        gini = 2.0 * np.dot(ranks, dist.sorted_values) / (n * n * dist.mean) - (n + 1) / n
        assert t_val == pytest.approx(gini, abs=1e-12)


def test_replication_changes_index_by_at_most_two_over_n(rng):
    for _ in range(50):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(2, 6))
        values = rng.uniform(0.1, 5.0, n)
        z = float(rng.uniform(0.5, 5.0))
        base = takayama_empirical(build_empirical(IncomeSample(values)),
                                  PovertyConfig(z)).value
        replicated = takayama_empirical(
            build_empirical(IncomeSample(np.repeat(values, m))),
            PovertyConfig(z)).value
        assert abs(replicated - base) <= 2.0 / n + 1e-12


def test_population_uniform_01():
    value = takayama_population(uniform(0.0, 1.0), PovertyConfig(1.0)).value
    assert value == pytest.approx(1 / 3, abs=1e-8)


def test_population_uniform_02():
    value = takayama_population(uniform(0.0, 2.0), PovertyConfig(1.0)).value
    assert value == pytest.approx(2 / 3, abs=1e-8)


def test_population_line_below_support():
    value = takayama_population(pareto(2.0, 3.0), PovertyConfig(1.0)).value
    assert value == 1.0


def test_consistency_large_sample(rng):
    values = rng.random(100_000)
    dist = build_empirical(IncomeSample(values))
    value = takayama_empirical(dist, PovertyConfig(1.0)).value
    assert abs(value - 1 / 3) < 0.01


def test_fgt_examples():
    cfg = PovertyConfig(2.0)
    d37 = build_empirical(IncomeSample([3.0, 7.0]))
    d13 = build_empirical(IncomeSample([1.0, 3.0]))
    assert fgt_index(d37, cfg, 1.0).value == 0.0
    assert fgt_index(d13, cfg, 0.0).value == 0.5
    assert fgt_index(d13, cfg, 1.0).value == 0.25
    with pytest.raises(ValueError):
        fgt_index(d13, cfg, -1.0)


@given(positive_incomes, st.floats(0.1, 1e4), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_fgt_in_unit_interval(values, z, alpha):
    dist = build_empirical(IncomeSample(values))
    value = fgt_index(dist, PovertyConfig(z), alpha).value
    assert 0.0 <= value <= 1.0


@given(positive_incomes, positive_incomes, st.floats(0.1, 1e4),
       st.sampled_from([0.0, 1.0, 2.0]))
def test_fgt_decomposable(left, right, z, alpha):
    cfg = PovertyConfig(z)
    pooled = fgt_index(build_empirical(IncomeSample(left + right)), cfg, alpha).value
    part_left = fgt_index(build_empirical(IncomeSample(left)), cfg, alpha).value
    part_right = fgt_index(build_empirical(IncomeSample(right)), cfg, alpha).value
    n1, n2 = len(left), len(right)
    weighted = (n1 * part_left + n2 * part_right) / (n1 + n2)
    assert pooled == pytest.approx(weighted, rel=1e-12, abs=1e-12)
