"""Subgroup decomposition of the Takayama index: the decomposability gap,
its limiting variance, and recomposition of the global index.

With K subgroups of weights p_i (empirically n_i / n) the gap is

    gd_n = T_n - sum_i (n_i / n) T_{n_i}(i),

the difference between the pooled index and the size-weighted subgroup
indices; a decomposable index (e.g. FGT) makes it vanish identically.
Centered at the population gap, sqrt(n) gd_n is asymptotically normal with
variance theta1^2 + theta2^2, where theta1^2 aggregates within- and
cross-group covariances of the index kernels,

    theta1^2 = A1 + A2 + A31 + A32 + 2 (B1 + B2 + B3),

and theta2^2 is a weighted between-group variance of per-group scalars.
Centering at the mixed gap (population indices, empirical weights) replaces
theta2^2 by theta3^2, the same construction without the index functional
term.

Sign conventions.  B1 and B3 are covariances between the mean-level kernel
difference (g - g_i) and bridge-integral terms; like sigma12 in the pooled
variance they inherit a leading minus sign from the residual term, and the
per-group scalars subtract (not add) the mixed moment E[F_h(X^i) q(X^i)].
Both choices are validated against a Monte Carlo oracle and an independent
influence-function oracle in the test suite.

The two partition kinds take different routes.  Analytic subgroups
evaluate the seven components by adaptive quadrature.  Empirical subgroups
skip them: each observation x of group h gets the influence value
a_h(x) = phi_pool(x) - phi_h(x), where phi = g - (B - E B) and B(x) is
1/n times the sum of q over the sample at and above x.  Then theta1^2 is
sum_h p_h Var_h(a_h), and the per-group scalars are E_h a_h.  The pooled
kernels are built once, so the cost is O(n log n) for any K.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .asymptotics import ConfidenceInterval, KernelSet
from .distributions import AnalyticDistribution, mixture
from .errors import NumericalError
from .indices import takayama_empirical, takayama_population
from .quadrature import DEFAULT_QUADRATURE, QuadratureSettings, integrate
from .samples import (EmpiricalDistribution, IncomeSample, PovertyConfig,
                      build_empirical)

GroupDistribution = Union[EmpiricalDistribution, AnalyticDistribution]
IndexFunctional = Callable[[GroupDistribution], float]


@dataclass(frozen=True, eq=False)
class Subgroup:
    label: str
    dist: GroupDistribution
    weight: float
    size: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"group weight must lie in (0, 1], got {self.weight}")
        if isinstance(self.dist, EmpiricalDistribution):
            if self.size is None:
                object.__setattr__(self, "size", self.dist.size)
            if self.size != self.dist.size or self.size < 1:
                raise ValueError(f"empty or inconsistent group {self.label!r}")


@dataclass(frozen=True, eq=False)
class SubgroupPartition:
    """K subgroups plus the pooled distribution they compose into."""
    groups: Tuple[Subgroup, ...]
    pooled: GroupDistribution

    def __post_init__(self):
        if not self.groups:
            raise ValueError("partition needs at least one group")
        kinds = {isinstance(g.dist, EmpiricalDistribution) for g in self.groups}
        if len(kinds) != 1:
            raise ValueError("groups must be all empirical or all analytic")
        total = math.fsum(g.weight for g in self.groups)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"group weights must sum to 1, got {total!r}")
        if self.is_empirical:
            n = sum(g.size for g in self.groups)
            if n != self.pooled.size:
                raise ValueError("group sizes must add up to the pooled sample size")

    @property
    def is_empirical(self) -> bool:
        return isinstance(self.groups[0].dist, EmpiricalDistribution)

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def weights(self) -> np.ndarray:
        return np.array([g.weight for g in self.groups])


def partition(sample: IncomeSample) -> SubgroupPartition:
    """Split a labelled sample into per-group empirical distributions.

    Groups keep first-appearance order; weights are n_i / n.  Equivalence
    scaling is applied once, before splitting.  One pass codes the labels
    and one stable sort splits the values, so the cost does not grow with K.
    """
    if sample.group_labels is None:
        raise ValueError("sample carries no group labels")
    if sample.size == 0:
        raise ValueError("empty sample")
    values = sample.scaled_values()
    codes: dict = {}
    group_of = np.fromiter((codes.setdefault(lab, len(codes))
                            for lab in sample.group_labels.tolist()),
                           dtype=np.intp, count=sample.size)
    for lab in codes:
        if not lab == lab:  # a NaN label matches no observation
            raise ValueError(f"empty group {lab!r}")
    sizes = np.bincount(group_of, minlength=len(codes))
    members = np.split(values[np.argsort(group_of, kind="stable")], np.cumsum(sizes)[:-1])
    n = sample.size
    groups = []
    for lab, size, member_values in zip(codes, sizes.tolist(), members):
        dist = build_empirical(IncomeSample(member_values))
        groups.append(Subgroup(str(lab), dist, size / n, size))
    pooled = build_empirical(IncomeSample(values))
    return SubgroupPartition(tuple(groups), pooled)


def analytic_partition(components: Sequence[Tuple[str, AnalyticDistribution, float]],
                       sizes: Optional[Sequence[int]] = None) -> SubgroupPartition:
    """Build a population partition; the pooled law is the weighted mixture.

    Optional sizes attach empirical group counts to an analytic partition so
    the mixed gap (population indices, empirical weights) can be formed.
    """
    if sizes is not None and len(sizes) != len(components):
        raise ValueError("sizes must match the number of components")
    groups = tuple(
        Subgroup(label, dist, weight, None if sizes is None else int(sizes[k]))
        for k, (label, dist, weight) in enumerate(components))
    pooled = mixture([g.dist for g in groups], [g.weight for g in groups])
    return SubgroupPartition(groups, pooled)


@dataclass(frozen=True)
class GapEstimate:
    """Global index, per-group indices, and the decomposability gap(s)."""
    global_index: float
    local_indices: Tuple[float, ...]
    weights: Tuple[float, ...]
    gap: float
    population_gap: Optional[float] = None
    mixed_gap: Optional[float] = None

    @property
    def weighted_local_sum(self) -> float:
        return float(np.dot(self.weights, self.local_indices))


def _default_index(dist: GroupDistribution, config: PovertyConfig,
                   quad: QuadratureSettings) -> float:
    if isinstance(dist, EmpiricalDistribution):
        return takayama_empirical(dist, config).value
    return takayama_population(dist, config, quad).value


def decomposability_gap(part: SubgroupPartition, config: PovertyConfig,
                        quad: QuadratureSettings = DEFAULT_QUADRATURE,
                        index_fn: Optional[Callable[[GroupDistribution, PovertyConfig], float]] = None
                        ) -> GapEstimate:
    """Gap between the pooled index and the weighted subgroup indices.

    index_fn swaps in another index (same signature on a distribution and
    config); the default is the Takayama index.  For analytic partitions the
    gap is the population gap, and the mixed gap is added when the partition
    carries group sizes.
    """
    def evaluate(dist: GroupDistribution) -> float:
        if index_fn is not None:
            return index_fn(dist, config)
        return _default_index(dist, config, quad)

    global_index = evaluate(part.pooled)
    locals_ = tuple(evaluate(g.dist) for g in part.groups)
    weights = tuple(g.weight for g in part.groups)
    gap = global_index - float(np.dot(weights, locals_))

    population_gap = mixed_gap = None
    if not part.is_empirical:
        population_gap = gap
        if all(g.size is not None for g in part.groups):
            sizes = np.array([g.size for g in part.groups], dtype=float)
            mixed_gap = global_index - float(np.dot(sizes / sizes.sum(), locals_))
    return GapEstimate(global_index, locals_, weights, gap, population_gap, mixed_gap)


@dataclass(frozen=True)
class GapVariance:
    """Theorem-level variance pieces for the decomposability gap.

    The seven components a1 ... b3 are filled on the analytic route, which
    assembles theta1^2 from them.  They are None on the empirical route,
    which takes theta1^2 as a weighted sum of within-group variances of
    per-observation influence values, non-negative by construction.  The
    two routes' per-group scalars may differ by a common shift, which
    theta2^2 and theta3^2 do not see.
    """
    a1: Optional[float]
    a2: Optional[float]
    a31: Optional[float]
    a32: Optional[float]
    b1: Optional[float]
    b2: Optional[float]
    b3: Optional[float]
    theta1_sq: float
    theta2_sq: float
    theta3_sq: float
    gap_scalars: Tuple[float, ...]
    mean_scalars: Tuple[float, ...]

    def __post_init__(self):
        components = (self.a1, self.a2, self.a31, self.a32, self.b1, self.b2, self.b3)
        if None not in components:
            assembled = (self.a1 + self.a2 + self.a31 + self.a32
                         + 2.0 * (self.b1 + self.b2 + self.b3))
            if abs(assembled - self.theta1_sq) > 1e-9 * max(1.0, abs(assembled)):
                raise NumericalError("variance assembly inconsistent")
        for name, value in (("theta1_sq", self.theta1_sq),
                            ("theta2_sq", self.theta2_sq),
                            ("theta3_sq", self.theta3_sq)):
            if value < -1e-6:
                raise NumericalError(
                    f"variance assembly inconsistent: {name} = {value:.3e}")

    @property
    def gap_centered_total(self) -> float:
        """Variance of sqrt(n)(gd_n - gd): theta1^2 + theta2^2."""
        return self.theta1_sq + self.theta2_sq

    @property
    def mixed_centered_total(self) -> float:
        """Variance of sqrt(n)(gd_n - gd_0): theta1^2 + theta3^2."""
        return self.theta1_sq + self.theta3_sq


# ---------------------------------------------------------------------------
# empirical (influence-vector) route


def _influence(kernels: KernelSet):
    """phi(x) = g(x) - (B(x) - E B) for an empirical binding, where
    B(x) = (1/n) sum of q(X_k) over X_k >= x is a suffix sum of q over the
    sorted sample; tied values share one B.  The suffix sums are built once,
    so an evaluation costs binary searches into the sorted sample only."""
    x = kernels.source.sorted_values
    suffix = np.append(np.cumsum(kernels.q(x)[::-1])[::-1], 0.0) / x.size

    def bridge(at: np.ndarray) -> np.ndarray:
        return suffix[np.searchsorted(x, at, side="left")]

    mean_b = float(bridge(x).mean())
    return lambda at: kernels.g(at) - (bridge(at) - mean_b)


def _empirical_gap_variance(part: SubgroupPartition, config: PovertyConfig,
                            index_functional: IndexFunctional) -> GapVariance:
    # For x in group h the gap's influence is a_h(x) - (T_h - sum_i p_i T_i)
    # with a_h = phi_pool - phi_h; theta1^2 is its within-group part.
    phi_pool = _influence(KernelSet(part.pooled, config))
    p = part.weights
    theta1 = 0.0
    mean_scalars = []
    gap_scalars = []
    for weight, grp in zip(p, part.groups):
        x = grp.dist.sorted_values
        a = phi_pool(x) - _influence(KernelSet(grp.dist, config))(x)
        theta1 += weight * float(a.var())
        m_h = float(a.mean())
        mean_scalars.append(m_h)
        gap_scalars.append(m_h - index_functional(grp.dist))

    theta2 = _weighted_variance(gap_scalars, p)
    theta3 = _weighted_variance(mean_scalars, p)
    return GapVariance(None, None, None, None, None, None, None,
                       theta1, theta2, theta3,
                       tuple(gap_scalars), tuple(mean_scalars))


def _weighted_variance(values: Sequence[float], weights: np.ndarray) -> float:
    """sum_h p_h (v_h - vbar)^2, centred first: E[v^2] - vbar^2 cancels when
    the values are large next to their spread."""
    deviations = np.asarray(values, dtype=float) - float(np.dot(weights, values))
    return float(np.dot(weights, deviations * deviations))


# ---------------------------------------------------------------------------
# analytic (quadrature) route


def _analytic_gap_variance(part: SubgroupPartition, config: PovertyConfig,
                           quad: QuadratureSettings,
                           index_functional: IndexFunctional) -> GapVariance:
    k_glob = KernelSet(part.pooled, config, quad)
    groups = part.groups
    k = len(groups)
    p = np.array([g.weight for g in groups])
    kernels = [KernelSet(g.dist, config, quad) for g in groups]
    quantiles = [g.dist.quantile for g in groups]
    cdfs = [g.dist.cdf for g in groups]
    s_star = [ki.s_poor for ki in kernels]
    inner = quad.tighter()

    def d_fn(i: int, t: float) -> float:
        x = float(quantiles[i](t))
        return float(k_glob.g(x) - kernels[i].g(x))

    def c_fn(i: int, s: float) -> float:
        return float(k_glob.q(quantiles[i](s)))

    def w_fn(i: int, s: float) -> float:
        x = float(quantiles[i](s))
        return p[i] * float(k_glob.q(x)) - float(kernels[i].q(x))

    # A1: per-group variance of (g - g_i), linear tails folded in exactly.
    a1 = 0.0
    for i in range(k):
        brk = [s_star[i]]
        mean_d = integrate(lambda t: d_fn(i, t), 0.0, 1.0, quad, breakpoints=brk)
        mean_d2 = integrate(lambda t: d_fn(i, t) ** 2, 0.0, 1.0, quad, breakpoints=brk)
        a1 += p[i] * (mean_d2 - mean_d ** 2)

    # A2: bridge quadratic form of (p_i q - q_i) along the group quantile.
    a2 = 0.0
    for i in range(k):
        hi = s_star[i]
        if hi <= 0.0:
            continue

        def low_part(s, i=i, hi=hi):
            return integrate(lambda t: t * w_fn(i, t), 0.0, s, inner)

        def high_part(s, i=i, hi=hi):
            return integrate(lambda t: (1.0 - t) * w_fn(i, t), s, hi, inner)

        a2 += p[i] * integrate(
            lambda s: w_fn(i, s) * ((1.0 - s) * low_part(s) + s * high_part(s)),
            0.0, hi, quad)

    # A31: same-group pair, kernel warped by the foreign CDF F_h.
    a31 = 0.0
    for i in range(k):
        hi = s_star[i]
        if hi <= 0.0:
            continue
        for h in range(k):
            if h == i:
                continue

            def phi(t, i=i, h=h):
                return float(cdfs[h](quantiles[i](t)))

            def warped_prefix(s, i=i, h=h):
                return integrate(lambda t: c_fn(i, t) * phi(t), 0.0, s, inner)

            cross = integrate(lambda s: c_fn(i, s) * warped_prefix(s), 0.0, hi, quad)
            mean_warped = integrate(lambda t: c_fn(i, t) * phi(t), 0.0, hi, quad)
            a31 += p[i] ** 2 * p[h] * (2.0 * cross - mean_warped ** 2)

    # A32: distinct-group pair against a third group's CDF.
    a32 = 0.0
    for i in range(k):
        if s_star[i] <= 0.0:
            continue
        for j in range(k):
            if j == i or s_star[j] <= 0.0:
                continue
            for h in range(k):
                if h in (i, j):
                    continue
                a32 += p[i] * p[j] * p[h] * _analytic_cross_bridge(
                    lambda s: c_fn(i, s), lambda t: c_fn(j, t),
                    lambda s: float(cdfs[h](quantiles[i](s))),
                    lambda t: float(cdfs[h](quantiles[j](t))),
                    lambda s: float(cdfs[j](quantiles[i](s))),
                    s_star[i], s_star[j], quad, inner)

    # D_i(s) = int_0^s (g - g_i)(Q_i); the common ingredient of B1/B3.
    def d_prefix(i: int, s: float) -> float:
        return integrate(lambda t: d_fn(i, t), 0.0, s, inner,
                         breakpoints=[s_star[i]])

    d_total = [integrate(lambda t: d_fn(i, t), 0.0, 1.0, quad,
                         breakpoints=[s_star[i]]) for i in range(k)]

    b1 = 0.0
    for i in range(k):
        hi = s_star[i]
        if hi <= 0.0:
            continue
        b1 -= p[i] * integrate(
            lambda s: w_fn(i, s) * (d_prefix(i, s) - s * d_total[i]),
            0.0, hi, quad)

    b2 = 0.0
    b3 = 0.0
    for i in range(k):
        for j in range(k):
            if j == i or s_star[j] <= 0.0:
                continue

            def phi_ij(t, i=i, j=j):
                return float(cdfs[i](quantiles[j](t)))

            if s_star[i] > 0.0:
                def w_bridge(b, i=i):
                    return integrate(
                        lambda s: w_fn(i, s) * (min(s, b) - s * b),
                        0.0, s_star[i], inner, breakpoints=[b])

                b2 += p[i] * p[j] * integrate(
                    lambda t: c_fn(j, t) * w_bridge(phi_ij(t)),
                    0.0, s_star[j], quad)

            b3 -= p[i] * p[j] * integrate(
                lambda t: c_fn(j, t) * (d_prefix(i, phi_ij(t))
                                        - phi_ij(t) * d_total[i]),
                0.0, s_star[j], quad)

    theta1 = a1 + a2 + a31 + a32 + 2.0 * (b1 + b2 + b3)

    slope = 2.0 * k_glob.p_h / k_glob.mu ** 2
    mean_scalars = []
    gap_scalars = []
    for h in range(k):
        hi = s_star[h]
        head_g = integrate(lambda t: float(k_glob.g(quantiles[h](t))), 0.0, hi, quad)
        head_q = integrate(lambda t: float(quantiles[h](t)), 0.0, hi, quad)
        e_g = head_g + slope * (groups[h].dist.mean - head_q)
        mixed_moment = 0.0
        for i in range(k):
            if s_star[i] <= 0.0:
                continue
            mixed_moment += p[i] * integrate(
                lambda t: float(cdfs[h](quantiles[i](t))) * c_fn(i, t),
                0.0, s_star[i], quad)
        m_h = e_g - mixed_moment
        mean_scalars.append(m_h)
        gap_scalars.append(m_h - index_functional(groups[h].dist))

    theta2 = _weighted_variance(gap_scalars, p)
    theta3 = _weighted_variance(mean_scalars, p)
    return GapVariance(a1, a2, a31, a32, b1, b2, b3, theta1, theta2, theta3,
                       tuple(gap_scalars), tuple(mean_scalars))


def _analytic_cross_bridge(c_i, c_j, phi_i, phi_j, crossing, hi_i, hi_j,
                           quad, inner) -> float:
    """Double integral of c_i(s) c_j(t) [min(phi_i(s), phi_j(t)) -
    phi_i(s) phi_j(t)]; the inner integrand kinks where phi_j crosses
    phi_i(s), which happens at t = F_j(Q_i(s)) by monotonicity."""

    def inner_at(s: float) -> float:
        a = phi_i(s)
        return integrate(lambda t: c_j(t) * (min(a, phi_j(t)) - a * phi_j(t)),
                         0.0, hi_j, inner, breakpoints=[crossing(s)])

    return integrate(lambda s: c_i(s) * inner_at(s), 0.0, hi_i, quad)


def gap_variance(part: SubgroupPartition, config: PovertyConfig,
                 quad: QuadratureSettings = DEFAULT_QUADRATURE,
                 index_functional: Optional[IndexFunctional] = None) -> GapVariance:
    """The three thetas, with the seven within/cross components on the
    analytic route (None on the empirical route, where theta1^2 >= 0 by
    construction).

    index_functional maps a subgroup distribution to the scalar the gap
    scalars subtract; the default is the Takayama index itself (empirical
    or population, matching the partition kind).
    """
    if index_functional is None:
        def index_functional(dist: GroupDistribution) -> float:
            return _default_index(dist, config, quad)
    if part.is_empirical:
        return _empirical_gap_variance(part, config, index_functional)
    return _analytic_gap_variance(part, config, quad, index_functional)


def recompose_interval(weighted_local_sum: float,
                       gap_ci: ConfidenceInterval) -> ConfidenceInterval:
    """Global-index interval: weighted subgroup indices plus the gap CI."""
    return gap_ci.shifted(weighted_local_sum)


def recompose_global(part: SubgroupPartition, gap_ci: ConfidenceInterval,
                     config: PovertyConfig,
                     quad: QuadratureSettings = DEFAULT_QUADRATURE) -> ConfidenceInterval:
    """Recover a confidence interval for the global index from subgroup
    indices and a confidence interval for the gap."""
    estimate = decomposability_gap(part, config, quad)
    return recompose_interval(estimate.weighted_local_sum, gap_ci)
