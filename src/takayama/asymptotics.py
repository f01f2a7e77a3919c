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

whose limit is the integral of a Brownian bridge against nu.  The limiting
variance splits as

    sigma^2 = sigma1^2 + sigma2^2 + 2 sigma12,
    sigma1^2 = Var g(X),
    sigma2^2 = double integral of nu(s) nu(t) (min(s,t) - st),
    sigma12  = - integral of nu(s) (int_{x <= F^{-1}(s)} g dF - s E g) ds.

Note the leading minus in sigma12: it carries the sign of beta_n.  Dropping
it (an easy slip) inflates the variance by an order of magnitude; the
Monte Carlo and coverage tests pin the sign down.

The plug-in estimator replaces F by the empirical CDF and mu by the sample
mean; every integral then has a closed form over the n quantile cells and
is summed exactly below (no quadrature on the estimation path).  The sums
are written once, row-wise: plugin_rows scores a stack of sorted samples
along axis 1, and sigma_plugin is its one-row call.  The population values
(sigma_analytic) are moments of the influence function phi = g - (B - E B)
with B(x) = int_{F(x)}^1 nu: sigma1^2 = Var g, sigma2^2 = Var B and
sigma12 = -Cov(g, B).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .distributions import AnalyticDistribution, require_finite_second_moment
from .errors import NumericalError
from .indices import takayama_empirical, takayama_population, takayama_rows
from .normal import normal_quantile
from .population import bind, influence_variances
from .quadrature import DEFAULT_QUADRATURE, QuadratureSettings
from .samples import (EmpiricalDistribution, PovertyConfig,
                      empirical_cdf, empirical_quantile, poor_count)

BoundDistribution = Union[EmpiricalDistribution, AnalyticDistribution]


class KernelSet:
    """The kernels ell/h/g/q/nu bound to one distribution and poverty line.

    Scalars mu, P(h) and P(g) are computed once at construction: exactly
    (sample averages) for an empirical binding, by quadrature over each
    mixture component's quantile for an analytic one (see population).
    E g(X) is zero by construction; the cached p_g retains the numerical
    value as a consistency witness.
    """

    def __init__(self, source: BoundDistribution, config: PovertyConfig,
                 quad: QuadratureSettings = DEFAULT_QUADRATURE):
        self.source = source
        self.config = config
        self.poverty_line = config.poverty_line
        if isinstance(source, EmpiricalDistribution):
            self.kind = "empirical"
            self.mu = source.mean
            self._cdf = lambda x: empirical_cdf(source, x)
            self._quantile = lambda s: empirical_quantile(source, s)
            self.s_poor = poor_count(source, config) / source.size
            x = source.sorted_values
            f_at = np.searchsorted(x, x, side="right") / source.size
            h_at = x * (1.0 - f_at) * config.poor_mask(x)
            self.p_h = float(h_at.mean())
            self.p_g = float(self.g(x).mean())
        else:
            self.kind = "analytic"
            self.mu = source.mean
            self._cdf = source.cdf
            self._quantile = source.quantile
            self.s_poor = float(np.clip(source.cdf(config.poverty_line), 0.0, 1.0))
            law = bind(source, config, quad)
            self.p_h = law.p_h
            self.p_g = law.mean_g()

    def cdf(self, x):
        return self._cdf(x)

    def quantile(self, s):
        return self._quantile(s)

    def ell(self, x):
        """Income censored above the poverty line."""
        x = np.asarray(x, dtype=float)
        return x * self.config.poor_mask(x)

    def h(self, x):
        """Poor income weighted by the survival function 1 - F."""
        x = np.asarray(x, dtype=float)
        return x * (1.0 - np.asarray(self._cdf(x), dtype=float)) * self.config.poor_mask(x)

    def g(self, x):
        """Influence kernel of the index through the empirical mean."""
        x = np.asarray(x, dtype=float)
        return 2.0 * (self.p_h * x / self.mu ** 2 - self.h(x) / self.mu)

    def q(self, x):
        """Weight of the rank-based residual term, -2 ell(x) / mu."""
        return -2.0 * self.ell(x) / self.mu

    def nu(self, s):
        """q evaluated along the quantile function; vanishes for s > F(Z)."""
        arr = np.asarray(s, dtype=float)
        if arr.size and (arr.min() <= 0.0 or arr.max() >= 1.0):
            raise ValueError("nu argument must lie in (0, 1)")
        out = self.q(self._quantile(arr))
        return float(out) if np.isscalar(s) else out


_KERNEL_TAGS = {"ell": "ell", "h": "h", "g": "g", "q": "q", "nu": "nu"}


def kernel_eval(kernels: KernelSet, which: str, arg: float) -> float:
    """Evaluate one named kernel; `which` is one of ell/h/g/q/nu."""
    try:
        name = _KERNEL_TAGS[which]
    except KeyError:
        raise ValueError(f"unknown kernel tag {which!r}; expected one of "
                         f"{sorted(_KERNEL_TAGS)}") from None
    if name != "nu" and arg < 0:
        raise ValueError(f"kernel {which} takes a non-negative income, got {arg}")
    return float(getattr(kernels, name)(arg))


@dataclass(frozen=True)
class VarianceDecomposition:
    """sigma1^2, sigma2^2, sigma12 and the assembled total.

    The squared components are non-negative by construction.  The assembled
    total is a Gaussian variance in the limit, but the exact plug-in sums
    can dip below zero at toy sample sizes (the bridge integrals live on
    the continuous unit square while sigma1^2 averages over sample atoms,
    an O(1/n) mismatch); callers building confidence intervals should clamp
    at zero.
    """
    sigma1_sq: float
    sigma2_sq: float
    sigma12: float
    total: float

    def __post_init__(self):
        if self.sigma1_sq < -1e-9 or self.sigma2_sq < -1e-9:
            raise NumericalError(
                f"negative variance component: sigma1^2={self.sigma1_sq:.3e}, "
                f"sigma2^2={self.sigma2_sq:.3e}")

    @classmethod
    def assemble(cls, sigma1_sq: float, sigma2_sq: float,
                 sigma12: float) -> "VarianceDecomposition":
        return cls(sigma1_sq, sigma2_sq, sigma12,
                   sigma1_sq + sigma2_sq + 2.0 * sigma12)


@dataclass(frozen=True)
class ConfidenceInterval:
    center: float
    half_width: float
    level: float

    def __post_init__(self):
        if self.half_width < 0:
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
        return self.lower <= value <= self.upper

    def shifted(self, offset: float) -> "ConfidenceInterval":
        return ConfidenceInterval(self.center + offset, self.half_width, self.level)


def _bridge_min_antiderivative(u: float, v: float) -> float:
    # integral of min(s, t) over [0,u] x [0,v]
    w, z = (u, v) if u <= v else (v, u)
    return 0.5 * w * w * z - w ** 3 / 6.0


def bridge_cell_integral(a: float, b: float, c: float, d: float) -> float:
    """Exact integral of min(s,t) - s t over the rectangle [a,b] x [c,d].

    This is the Brownian-bridge covariance integrated in closed form; the
    diagonal split is folded into the min antiderivative.
    """
    if not (0.0 <= a <= b <= 1.0 and 0.0 <= c <= d <= 1.0):
        raise ValueError(f"rectangle [{a},{b}]x[{c},{d}] must sit inside the unit square")
    m = (_bridge_min_antiderivative(b, d) - _bridge_min_antiderivative(a, d)
         - _bridge_min_antiderivative(b, c) + _bridge_min_antiderivative(a, c))
    return m - 0.25 * (b * b - a * a) * (d * d - c * c)


def bridge_quadratic_step(step_values: np.ndarray) -> float:
    """Exact value of the double integral of w(s) w(t) (min(s,t) - st) for a
    step function w taking step_values on the uniform cell grid of [0, 1].

    Diagonal cells use the closed-form square-cell integral; off-diagonal
    cells factorize as s (1 - t), so one prefix sum gives the whole upper
    triangle and the quadratic form costs O(n)."""
    w_vals = np.asarray(step_values, dtype=float)
    return float(_bridge_quadratic_rows(w_vals[np.newaxis, :], w_vals.size)[0])


def _bridge_quadratic_rows(w: np.ndarray, n: int) -> np.ndarray:
    """bridge_quadratic_step of every row of w on the n-cell grid.  w may
    hold only the first q <= n cells when the rest of every row is zero."""
    j = np.arange(1, w.shape[1] + 1, dtype=float)
    cell_lo = (j - 1.0) / n
    cell_hi = j / n
    width = 1.0 / n
    cell_s = (2.0 * j - 1.0) / (2.0 * n * n)  # integral of s over each cell

    diag = (cell_hi ** 3 - cell_lo ** 3) / 3.0 - cell_lo ** 2 * width - cell_s ** 2
    # Cells j < k contribute w_j s_j * w_k (width - s_k): a prefix sum over j.
    before = np.cumsum(w * cell_s, axis=1)
    return (np.einsum("ij,j->i", w * w, diag)
            + 2.0 * np.einsum("ij,ij->i", (w * (width - cell_s))[:, 1:], before[:, :-1]))


@dataclass(frozen=True)
class PluginRows:
    """Per-row output of plugin_rows: T_n, and the variance components when
    they were asked for (None otherwise)."""
    index: np.ndarray
    sigma1_sq: Optional[np.ndarray] = None
    sigma2_sq: Optional[np.ndarray] = None
    sigma12: Optional[np.ndarray] = None

    @property
    def total(self) -> np.ndarray:
        return self.sigma1_sq + self.sigma2_sq + 2.0 * self.sigma12


def _last_tied_position(x: np.ndarray) -> Optional[np.ndarray]:
    """For each entry of the ascending rows of x, the position of the last
    entry equal to it (searchsorted side="right", minus one); None when no
    row has ties, where that position is the entry's own."""
    tied = x[:, 1:] == x[:, :-1]
    if not tied.any():
        return None
    n = x.shape[1]
    run_ends = np.full(x.shape, n - 1)
    run_ends[:, :-1] = np.where(tied, n, np.arange(n - 1))
    return np.minimum.accumulate(run_ends[:, ::-1], axis=1)[:, ::-1]


def plugin_rows(sorted_rows: np.ndarray, means: np.ndarray, config: PovertyConfig,
                variance: bool = True) -> PluginRows:
    """The plug-in core: T_n and sigma1^2, sigma2^2, sigma12 of every row of
    an (m, n) array of ascending samples, with means the row means.

    Every integral is summed exactly over the n quantile cells, along
    axis 1: O(n) per row after sorting (prefix sums).  F_n is
    right-continuous, so tied values share the rank of the last of them.
    """
    x = sorted_rows
    index = takayama_rows(x, means, config)
    if not variance:
        return PluginRows(index)
    n = x.shape[1]
    mu = means[:, np.newaxis]
    # h and nu vanish past each row's poor prefix, and so do the sigma2 and
    # sigma12 sums: all of them run over the longest prefix, q cells.  A
    # poor value's ties lie inside its own row's prefix.
    poor = config.poor_mask(x)
    q = int(np.count_nonzero(poor, axis=1).max())
    x_q, poor = x[:, :q], poor[:, :q]
    ranks = np.arange(1, q + 1, dtype=float)
    last_le = _last_tied_position(x_q)
    f_at = ranks / n if last_le is None else (last_le + 1) / n
    h_at = x_q * (1.0 - f_at) * poor
    p_h = h_at.sum(axis=1, keepdims=True) / n

    # g = 2 (P(h) x / mu^2 - h / mu).  Its mean is zero up to rounding, so
    # Var g = E g^2 - (E g)^2 loses nothing to cancellation.
    g_at = (2.0 * p_h / mu ** 2) * x
    g_at[:, :q] -= (2.0 / mu) * h_at
    p_g = g_at.mean(axis=1)
    sigma1 = np.einsum("ij,ij->i", g_at, g_at) / n - p_g ** 2

    nu = (-2.0 / mu) * x_q * poor
    sigma2 = _bridge_quadratic_rows(nu, n)

    # sigma12 = -sum nu (G_j width - P(g) s_j), with G_j = (1/n) times the
    # partial sum of g up to the last value tied with x_j.
    partial_g = np.cumsum(g_at[:, :q], axis=1)
    if last_le is not None:
        partial_g = np.take_along_axis(partial_g, last_le, axis=1)
    cell_s = (2.0 * ranks - 1.0) / (2.0 * n * n)
    sigma12 = (p_g * np.einsum("ij,j->i", nu, cell_s)
               - np.einsum("ij,ij->i", nu, partial_g) / n ** 2)
    return PluginRows(index, sigma1, sigma2, sigma12)


def sigma_plugin(dist: EmpiricalDistribution,
                 config: PovertyConfig) -> VarianceDecomposition:
    """Plug-in variance of one sample: the one-row call of plugin_rows."""
    rows = plugin_rows(dist.sorted_values[np.newaxis, :], np.array([dist.mean]), config)
    return VarianceDecomposition.assemble(float(rows.sigma1_sq[0]), float(rows.sigma2_sq[0]),
                                          float(rows.sigma12[0]))


def sigma_analytic(dist: AnalyticDistribution, config: PovertyConfig,
                   quad: QuadratureSettings = DEFAULT_QUADRATURE) -> VarianceDecomposition:
    """Population sigma1^2 = Var g, sigma2^2 = Var B and sigma12 = -Cov(g, B)
    by 1-D quadrature over each mixture component's quantile (see
    population); the cross-check path for sigma_plugin.  Needs E X^2 <
    infinity (closed form when the law carries one, tail quadrature
    otherwise).
    """
    require_finite_second_moment(dist)
    law = bind(dist, config, quad)
    if law.s_poor <= 0.0:
        return VarianceDecomposition.assemble(0.0, 0.0, 0.0)
    decomposition = VarianceDecomposition.assemble(*influence_variances(law))
    if decomposition.total < -1e-9:
        # The population total is a Gaussian variance; a genuinely negative
        # value means the quadratures disagree beyond tolerance.
        raise NumericalError(f"negative population variance {decomposition.total:.3e}")
    return decomposition


def confidence_interval(point: float, variance: float, n: int,
                        level: float) -> ConfidenceInterval:
    """Normal interval point +- z_{(1+level)/2} sqrt(variance / n)."""
    if variance < 0:
        raise ValueError(f"variance must be non-negative, got {variance}")
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    z = normal_quantile(0.5 * (1.0 + level))
    return ConfidenceInterval(point, z * math.sqrt(variance / n), level)


def representation_residual(values: np.ndarray, dist: AnalyticDistribution,
                            config: PovertyConfig,
                            quad: QuadratureSettings = DEFAULT_QUADRATURE,
                            kernels: Optional[KernelSet] = None,
                            population_value: Optional[float] = None) -> float:
    """sqrt(n)(T_n - T) minus its first-order expansion G_n(g) + beta_n.

    The expansion uses the true kernels of `dist`; beta_n is the exact
    rank-based sum -(1/sqrt n) sum_i (F_n(X_i) - F(X_i)) q(X_i).  The
    returned remainder should shrink (in median absolute value) as n grows.
    Pass precomputed `kernels` / `population_value` when evaluating many
    replicates from the same distribution.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    emp = EmpiricalDistribution(x, float(x.mean()), n)
    if emp.mean == 0.0:
        raise NumericalError("degenerate sample mean")
    if kernels is None:
        kernels = KernelSet(dist, config, quad)
    if population_value is None:
        population_value = takayama_population(dist, config, quad).value
    t_n = takayama_empirical(emp, config).value

    root_n = math.sqrt(n)
    g_term = root_n * (float(kernels.g(x).mean()) - kernels.p_g)
    f_n_at = np.searchsorted(x, x, side="right") / n
    f_at = np.asarray(dist.cdf(x), dtype=float)
    beta = -float(np.dot(f_n_at - f_at, kernels.q(x))) / root_n
    return root_n * (t_n - population_value) - g_term - beta
