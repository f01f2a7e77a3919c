"""Influence kernels, the plug-in asymptotic variance, and confidence
intervals for the Takayama index.

For a distribution F with mean mu and poverty line Z, define on incomes

    ell(x) = x * 1{x poor}
    h(x)   = x * (1 - F(x)) * 1{x poor}
    g(x)   = 2 * (P(h) * x / mu^2  -  h(x) / mu)
    q(x)   = -2 * ell(x) / mu

and on the unit interval nu(s) = q(F^{-1}(s)).  The scaled index error
sqrt(n) (T_n - T) behaves like G_n(g) + beta_n(nu) where G_n is the
centered empirical mean process and beta_n is the rank-based residual
term

    beta_n = -(1/sqrt(n)) * sum_i (F_n(X_i) - F(X_i)) q(X_i),

whose limit is the integral of a Brownian bridge against nu.  Both terms
are means of one influence function,

    sqrt(n) (T_n - T) ~ (1/sqrt(n)) * sum_i phi(X_i),
    phi(x) = g(x) - (B(x) - E B),  B(x) = int_{F(x)}^1 nu(s) ds,

so the limiting variance is Var phi, and it splits as

    sigma^2 = sigma1^2 + sigma2^2 + 2 sigma12,
    sigma1^2 = Var g(X),
    sigma2^2 = Var B(X)    (the double integral of nu(s) nu(t) (min(s,t) - st)),
    sigma12  = -Cov(g, B).

Note the leading minus in sigma12: it carries the sign of beta_n.  Dropping
it (an easy slip) inflates the variance by an order of magnitude; the
Monte Carlo and coverage tests pin the sign down.

The plug-in estimator replaces F by the empirical CDF and mu by the sample
mean, so B(x) becomes 1/n times the suffix sum of q over the sample values
at and above x.  influence_rows computes g and B at every observation of
a stack of sorted samples, row-wise in O(n); plugin_rows takes the
variances as moments over those n values, a VarianceDecomposition of
per-row arrays (T_n is takayama_rows' job), and sigma_plugin is its
one-row call.  The empirical gap variance (decomposition) reads the same
core.  The population values (sigma_analytic) are the same moments under
F, by quadrature (see population).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .distributions import AnalyticDistribution, require_finite_second_moment
from .errors import NumericalError
from .indices import takayama_rows
from .normal import normal_quantile
from .population import bind, influence_variances
from .samples import EmpiricalDistribution, PovertyConfig


@dataclass(frozen=True)
class VarianceDecomposition:
    """sigma1^2, sigma2^2, sigma12 and the total sigma1^2 + sigma2^2 +
    2 sigma12, the variance of the influence function phi; the fields may
    be arrays of many decompositions, elementwise."""
    sigma1_sq: float
    sigma2_sq: float
    sigma12: float
    total: float

    def __post_init__(self):
        if np.any(self.sigma1_sq < -1e-9) or np.any(self.sigma2_sq < -1e-9):
            raise NumericalError(
                f"negative variance component: sigma1^2={np.min(self.sigma1_sq):.3e}, "
                f"sigma2^2={np.min(self.sigma2_sq):.3e}")

    @classmethod
    def assemble(cls, sigma1_sq: float, sigma2_sq: float,
                 sigma12: float) -> "VarianceDecomposition":
        return cls(sigma1_sq, sigma2_sq, sigma12,
                   sigma1_sq + sigma2_sq + 2.0 * sigma12)


@dataclass(frozen=True)
class ConfidenceInterval:
    """center +- half_width at the given level; center and half_width may
    be arrays of many intervals at one level, elementwise."""
    center: float
    half_width: float
    level: float

    def __post_init__(self):
        if np.any(self.half_width < 0):
            raise ValueError(f"half width must be non-negative, got {self.half_width}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")

    @property
    def lower(self) -> float:
        return self.center - self.half_width

    @property
    def upper(self) -> float:
        return self.center + self.half_width

    def contains(self, value: float) -> bool:
        return (self.lower <= value) & (value <= self.upper)


def _tie_runs(x: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """For each entry of the ascending rows of x, the positions of the first
    and of the last entry equal to it; None when no row has ties, where
    both are the entry's own."""
    tied = x[:, 1:] == x[:, :-1]
    if not tied.any():
        return None
    n = x.shape[1]
    positions = np.arange(n)
    run_starts = np.zeros(x.shape, dtype=np.intp)
    run_starts[:, 1:] = np.where(tied, 0, positions[1:])
    run_ends = np.full(x.shape, n - 1)
    run_ends[:, :-1] = np.where(tied, n, positions[:-1])
    return (np.maximum.accumulate(run_starts, axis=1),
            np.minimum.accumulate(run_ends[:, ::-1], axis=1)[:, ::-1])


def influence_rows(sorted_rows: np.ndarray, means: np.ndarray,
                   config: PovertyConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The empirical influence core: g and B at every entry of an (m, n)
    array of ascending samples, with means the row means.

    h uses the right-continuous F_n, so tied values take the rank of the
    last of them; B(x) is 1/n times the suffix sum of q over X_k >= x, so
    tied values share one B.  h, q and B vanish past each row's poor
    prefix, so all but g's linear term run over the longest prefix, q
    entries: O(n) per row.  A poor value's ties lie inside its own row's
    prefix, and a non-poor value's suffix sum is exactly zero.
    """
    x = sorted_rows
    n = x.shape[1]
    mu = means[:, np.newaxis]
    poor = config.poor_mask(x)
    q = int(np.count_nonzero(poor, axis=1).max())
    x_q, poor = x[:, :q], poor[:, :q]
    runs = _tie_runs(x_q)
    f_at = np.arange(1, q + 1) / n if runs is None else (runs[1] + 1) / n
    h_at = x_q * (1.0 - f_at) * poor
    p_h = h_at.sum(axis=1, keepdims=True) / n
    g = (2.0 * p_h / mu ** 2) * x
    g[:, :q] -= (2.0 / mu) * h_at

    q_at = (-2.0 / mu) * x_q * poor
    suffix = np.cumsum(q_at[:, ::-1], axis=1)[:, ::-1] / n
    b = np.zeros(x.shape)
    b[:, :q] = suffix if runs is None else np.take_along_axis(suffix, runs[0], axis=1)
    return g, b


def plugin_rows(sorted_rows: np.ndarray, means: np.ndarray,
                config: PovertyConfig) -> VarianceDecomposition:
    """The plug-in variance of every row of an (m, n) array of ascending
    samples, with means the row means: over the n influence values of
    influence_rows, sigma1^2 = Var g, sigma2^2 = Var B, sigma12 =
    -Cov(g, B) and the total Var phi with phi = g - (B - E B), each an
    array over the rows.  The total is the mean square of the centred phi,
    so it is never negative.
    """
    g, b = influence_rows(sorted_rows, means, config)
    g -= g.mean(axis=1, keepdims=True)
    b -= b.mean(axis=1, keepdims=True)
    phi = g - b
    n = g.shape[1]

    def mean_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", u, v) / n

    return VarianceDecomposition(mean_product(g, g), mean_product(b, b),
                                 -mean_product(g, b), mean_product(phi, phi))


def sigma_plugin(dist: EmpiricalDistribution,
                 config: PovertyConfig) -> VarianceDecomposition:
    """Plug-in variance of one sample: the one-row call of plugin_rows."""
    rows = plugin_rows(dist.sorted_values[np.newaxis, :], np.array([dist.mean]), config)
    return VarianceDecomposition(float(rows.sigma1_sq[0]), float(rows.sigma2_sq[0]),
                                 float(rows.sigma12[0]), float(rows.total[0]))


def sigma_analytic(dist: AnalyticDistribution, config: PovertyConfig) -> VarianceDecomposition:
    """Population sigma1^2 = Var g, sigma2^2 = Var B and sigma12 = -Cov(g, B)
    by 1-D quadrature over each mixture component's quantile (see
    population); the cross-check path for sigma_plugin.  Needs E X^2 <
    infinity (closed form when the law carries one, tail quadrature
    otherwise).  With no poor mass P(h) = 0, so g and B vanish and every
    component is exactly zero.
    """
    require_finite_second_moment(dist)
    decomposition = VarianceDecomposition.assemble(*influence_variances(bind(dist, config)))
    if decomposition.total < -1e-9:
        # The population total is a Gaussian variance; a genuinely negative
        # value means the quadratures disagree beyond tolerance.
        raise NumericalError(f"negative population variance {decomposition.total:.3e}")
    return decomposition


def confidence_interval(point: float, variance: float, n: int,
                        level: float) -> ConfidenceInterval:
    """Normal interval point +- z_{(1+level)/2} sqrt(variance / n); point
    and variance may be arrays, giving one interval per entry (a NaN
    variance gives an interval that contains nothing)."""
    if np.any(variance < 0):
        raise ValueError(f"variance must be non-negative, got {variance}")
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    z = normal_quantile(0.5 * (1.0 + level))
    return ConfidenceInterval(point, z * np.sqrt(variance / n), level)


def representation_residual(rows: np.ndarray, dist: AnalyticDistribution,
                            config: PovertyConfig) -> np.ndarray:
    """sqrt(n)(T_n - T) minus its first-order expansion G_n(g) + beta_n, for
    every row of an (m, n) array of samples; a 1-D sample is one row.

    The expansion uses the true kernels of `dist`, with mu, P(h), E g and
    T = 1 - 2 P(h) / mu from one bound law; beta_n is the exact rank-based
    sum -(1/sqrt n) sum_i (F_n(X_i) - F(X_i)) q(X_i) with the
    right-continuous F_n.  The remainders should shrink (in median absolute
    value) as n grows.
    """
    x = np.sort(np.atleast_2d(np.asarray(rows, dtype=float)), axis=1)
    n = x.shape[1]
    if n == 0:
        raise ValueError("empty sample")
    means = x.mean(axis=1)
    if not means.all():
        raise NumericalError("degenerate sample mean")
    law = bind(dist, config)
    mu, p_h = law.mu, law.p_h
    f_at = np.asarray(dist.cdf(x), dtype=float)
    poor = config.poor_mask(x)
    g = 2.0 * (p_h * x / mu ** 2 - x * (1.0 - f_at) * poor / mu)
    q = -2.0 * x * poor / mu
    runs = _tie_runs(x)
    f_n_at = np.arange(1, n + 1) / n if runs is None else (runs[1] + 1) / n

    root_n = math.sqrt(n)
    t_n = takayama_rows(x, means, config)
    g_term = root_n * (g.mean(axis=1) - law.mean_g())
    beta = -np.einsum("ij,ij->i", f_n_at - f_at, q) / root_n
    return root_n * (t_n - (1.0 - 2.0 * p_h / mu)) - g_term - beta
