import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from takayama import (AnalyticDistribution, IncomeSample,
                      PovertyConfig, QuadratureSettings, ReplicateStudy,
                      bootstrap_variance, build_empirical, confidence_interval, exponential,
                      lognormal, mixture, normal_quantile,
                      pareto, representation_residual, sigma_analytic, sigma_plugin,
                      uniform)
from takayama.asymptotics import influence_rows
from takayama.normal import KOLMOGOROV_CRITICAL_99
from takayama.population import bind

from _oracles import (bisection_normal_quantile, bridge_cell_integral,
                      bridge_quadratic_step, brute_force_sigma2,
                      sigma2_step_quadrature)

CFG1 = PovertyConfig(1.0)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_values_uniform():
    law = bind(uniform(0.0, 1.0), CFG1)
    assert law.p_h == pytest.approx(1 / 6, abs=1e-12)
    assert law.g(np.array([0.5]), np.array([[0.5]]))[0] == pytest.approx(-1 / 3, abs=1e-9)
    # At 0.5 in a sample with mean 0.5 and F_n(0.5) = 1/2: h(0.5) = 0.25,
    # the only nonzero h, so P(h) = 0.25 / 4; q(0.5) = -2 is n times the
    # step of B there.
    x = np.array([[0.0, 0.5, 0.75, 0.75]])
    g, b = influence_rows(x, x.mean(axis=1), CFG1)
    h, p_h = 0.25, 0.25 / 4
    assert g[0, 1] == pytest.approx(2.0 * (p_h * 0.5 / 0.5 ** 2 - h / 0.5), abs=1e-12)
    assert 4.0 * (b[0, 1] - b[0, 2]) == pytest.approx(-2.0, abs=1e-12)


def test_kernels_vanish_beyond_line():
    x = np.linspace(0.05, 1.95, 39)[np.newaxis, :]
    g, b = influence_rows(x, x.mean(axis=1), CFG1)
    beyond = x[0] > 1.0
    assert np.all(b[0, beyond] == 0.0)
    # g is linear above the line
    ratios = g[0, beyond] / x[0, beyond]
    assert ratios == pytest.approx(np.full(ratios.size, ratios[0]), rel=1e-9)


def test_centered_kernel_mean_near_zero(rng):
    x = np.sort(rng.random(500))[np.newaxis, :]
    g, _ = influence_rows(x, x.mean(axis=1), CFG1)
    assert abs(g.mean()) < 1e-12
    for dist in (uniform(0.0, 1.0), exponential(1.3)):
        law = bind(dist, CFG1)
        mean_g = law.expect(lambda k, u, x: law.g(x, law.comps.cdfs(k, u, x)),
                            lambda tail_q, tail_q2: law.slope * tail_q)
        assert abs(mean_g) < 1e-9


# ---------------------------------------------------------------------------
# bridge integrals


def test_bridge_full_square():
    assert bridge_cell_integral(0, 1, 0, 1) == pytest.approx(1 / 12, abs=1e-15)


def test_bridge_disjoint_rectangle_factorizes():
    assert bridge_cell_integral(0, 0.5, 0.5, 1) == pytest.approx(1 / 64, abs=1e-15)


def test_bridge_bounds_checked():
    with pytest.raises(ValueError):
        bridge_cell_integral(0.5, 0.2, 0.0, 1.0)
    with pytest.raises(ValueError):
        bridge_cell_integral(0.0, 1.0, 0.0, 1.5)


unit = st.floats(0.0, 1.0, allow_nan=False)


@given(unit, unit, unit, unit)
def test_bridge_symmetry(a, b, c, d):
    a, b = sorted((a, b))
    c, d = sorted((c, d))
    assert bridge_cell_integral(a, b, c, d) == pytest.approx(
        bridge_cell_integral(c, d, a, b), abs=1e-15)


@pytest.mark.parametrize("rect", [
    (0.0, 1.0, 0.0, 1.0), (0.1, 0.4, 0.2, 0.9), (0.3, 0.35, 0.3, 0.35),
    (0.0, 0.5, 0.5, 1.0), (0.25, 0.75, 0.1, 0.6),
])
def test_bridge_matches_quadrature(rect):
    from scipy.integrate import quad
    a, b, c, d = rect

    def inner(s):
        # split the inner integral at the diagonal kink
        return quad(lambda t: min(s, t) - s * t, c, d, epsabs=1e-13,
                    points=[s] if c < s < d else None)[0]

    oracle = quad(inner, a, b, epsabs=1e-13, limit=200)[0]
    assert bridge_cell_integral(a, b, c, d) == pytest.approx(oracle, abs=1e-10)


def test_bridge_quadratic_grid_matches_brute_force(rng):
    for n in (1, 2, 5, 17):
        nu = rng.normal(size=n)
        assert bridge_quadratic_step(nu) == pytest.approx(
            brute_force_sigma2(nu), rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# plug-in variance


def test_sigma_plugin_no_poor_is_zero(rng):
    emp = build_empirical(IncomeSample(rng.uniform(2.0, 3.0, 50)))
    decomp = sigma_plugin(emp, CFG1)
    assert decomp.sigma1_sq == 0.0
    assert decomp.sigma2_sq == 0.0
    assert decomp.sigma12 == 0.0
    assert decomp.total == 0.0


def test_sigma_plugin_constant_poor_sample():
    # Every observation has the same influence value, so Var phi = 0, and
    # so is the bootstrap variance: every resample is the sample itself.
    emp = build_empirical(IncomeSample([0.5] * 20))
    decomp = sigma_plugin(emp, CFG1)
    assert decomp.sigma1_sq == pytest.approx(0.0, abs=1e-15)
    assert decomp.sigma2_sq == pytest.approx(0.0, abs=1e-15)
    assert decomp.total == 0.0
    assert decomp.total == bootstrap_variance([0.5] * 20, CFG1, 100, seed=1)


def test_sigma_plugin_close_to_population(rng):
    emp = build_empirical(IncomeSample(rng.random(100_000)))
    plug = sigma_plugin(emp, CFG1)
    pop = sigma_analytic(uniform(0.0, 1.0), CFG1)
    assert plug.total == pytest.approx(pop.total, rel=0.05)
    assert plug.sigma1_sq == pytest.approx(pop.sigma1_sq, rel=0.05)
    assert plug.sigma2_sq == pytest.approx(pop.sigma2_sq, rel=0.05)
    assert plug.sigma12 == pytest.approx(pop.sigma12, rel=0.05)


def test_sigma_analytic_uniform_exact_values():
    decomp = sigma_analytic(uniform(0.0, 1.0), CFG1)
    assert decomp.sigma1_sq == pytest.approx(32 / 135, abs=1e-7)
    assert decomp.sigma2_sq == pytest.approx(16 / 45, abs=1e-7)
    assert decomp.sigma12 == pytest.approx(-4 / 15, abs=1e-7)
    assert decomp.total == pytest.approx(8 / 135, abs=1e-7)


def test_sigma_analytic_line_below_support():
    decomp = sigma_analytic(pareto(2.0, 3.0), CFG1)
    assert decomp.total == 0.0


@pytest.mark.parametrize("dist, line", [
    (pareto(1.0, 3.0), 0.5), (mixture([pareto(1.0, 3.0), uniform(2.0, 3.0)], [0.5, 0.5]), 0.9),
], ids=["pareto", "mixture"])
def test_sigma_analytic_is_exactly_zero_without_poor_mass(dist, line):
    decomp = sigma_analytic(dist, PovertyConfig(line))
    assert (decomp.sigma1_sq, decomp.sigma2_sq, decomp.sigma12, decomp.total) == (
        0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("shape", [1.5, 2.0])
def test_sigma_analytic_refuses_infinite_second_moment(shape):
    dist = pareto(0.5, shape)
    assert dist.second_moment == math.inf
    with pytest.raises(ValueError, match=r"pareto\(0\.5,[0-9.]+\) has an infinite second moment"):
        sigma_analytic(dist, CFG1)


def test_infinite_second_moment_refused_through_a_mixture():
    # The other part does not know its E X^2, yet the mixture's is inf.
    base = uniform(0.0, 1.0)
    unknown = AnalyticDistribution(base.cdf, base.quantile, base.mean, "no-m2", base.support)
    dist = mixture([unknown, pareto(1.0, 1.5)], [0.5, 0.5])
    assert dist.second_moment == math.inf
    refusal = r"pareto\(1,1\.5\) has an infinite second moment"
    with pytest.raises(ValueError, match=refusal):
        sigma_analytic(dist, CFG1)
    with pytest.raises(ValueError, match=refusal):
        ReplicateStudy(dist, 100, 10, 1, CFG1)


@pytest.mark.parametrize("dist", [
    uniform(0.0, 1.0), uniform(0.0, 3.0), exponential(1.0), exponential(0.5),
    lognormal(0.0, 0.75), pareto(0.25, 3.5),
])
def test_sigma_analytic_components_nonnegative(dist):
    decomp = sigma_analytic(dist, CFG1)
    assert decomp.sigma2_sq >= -1e-10
    assert decomp.sigma1_sq >= -1e-10
    assert decomp.total >= -1e-9


def test_sigma2_exact_sum_agrees_with_quadrature(rng):
    values = rng.random(32)
    emp = build_empirical(IncomeSample(values))
    nu = np.where(emp.sorted_values <= 1.0, -2.0 * emp.sorted_values / emp.mean, 0.0)
    exact = bridge_quadratic_step(nu)
    numeric = sigma2_step_quadrature(nu, QuadratureSettings(abs_tol=1e-9))
    assert exact == pytest.approx(numeric, abs=1e-6)


# ---------------------------------------------------------------------------
# confidence intervals and the normal quantile


def test_confidence_interval_degenerate():
    ci = confidence_interval(0.4, 0.0, 100, 0.95)
    assert ci.lower == ci.upper == 0.4


def test_confidence_interval_matches_reported_arithmetic():
    # gap 0.0203 with half-width 0.0099 sits in [0.0104, 0.0302]
    from takayama import ConfidenceInterval
    ci = ConfidenceInterval(0.0203, 0.0099, 0.95)
    assert ci.lower == pytest.approx(0.0104, abs=1e-12)
    assert ci.upper == pytest.approx(0.0302, abs=1e-12)


def test_confidence_interval_is_elementwise():
    points, variances = np.array([0.1, 0.4, 0.5]), np.array([0.0, 2.0, np.nan])
    many = confidence_interval(points, variances, 50, 0.9)
    for k in range(2):
        one = confidence_interval(points[k], variances[k], 50, 0.9)
        assert (many.lower[k], many.upper[k]) == (one.lower, one.upper)
        assert many.contains(0.4)[k] == one.contains(0.4)
    assert many.contains(0.4).tolist() == [False, True, False]
    with pytest.raises(ValueError):
        confidence_interval(points, np.array([1.0, -1.0, 1.0]), 50, 0.9)


def test_confidence_interval_validation():
    with pytest.raises(ValueError):
        confidence_interval(0.0, -1.0, 10, 0.95)
    with pytest.raises(ValueError):
        confidence_interval(0.0, 1.0, 0, 0.95)
    with pytest.raises(ValueError):
        confidence_interval(0.0, 1.0, 10, 1.2)


def test_z_score_accuracy():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)


@pytest.mark.parametrize("p", [1e-7, 1e-4, 0.01, 0.2, 0.5, 0.8, 0.975, 0.9999, 1 - 1e-7])
def test_normal_quantile_against_bisection(p):
    assert abs(normal_quantile(p) - bisection_normal_quantile(p)) < 1e-9


@given(st.floats(1e-6, 1 - 1e-6))
def test_normal_quantile_inverts_cdf(p):
    from takayama import normal_cdf
    assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_kolmogorov_critical_value_known_constant():
    # the asymptotic 99th percentile of the scaled KS statistic
    from scipy.stats import kstwobign
    assert KOLMOGOROV_CRITICAL_99 == pytest.approx(kstwobign.ppf(0.99), rel=1e-12)


# ---------------------------------------------------------------------------
# representation remainder


def test_residual_smoke_single_observation():
    value = representation_residual(np.array([0.5]), uniform(0.0, 1.0), CFG1)
    assert value.shape == (1,) and math.isfinite(value[0])


def test_residual_line_below_support_is_exactly_inverse_root_n():
    dist = pareto(2.0, 3.0)
    values = np.asarray(dist.quantile(np.linspace(0.05, 0.95, 37)), dtype=float)
    got = representation_residual(values, dist, CFG1)
    assert got[0] == pytest.approx(1 / math.sqrt(37), abs=1e-12)


def test_residual_shrinks_with_n(rng):
    dist = uniform(0.0, 1.0)
    medians = []
    for n in (100, 1600):
        vals = np.abs(representation_residual(rng.random((120, n)), dist, CFG1))
        medians.append(np.median(vals))
    assert medians[1] < medians[0]
