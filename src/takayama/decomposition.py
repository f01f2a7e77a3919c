"""Subgroup decomposition of the Takayama index: the decomposability gap,
its limiting variance, and recomposition of the global index.

With K subgroups of weights p_i (empirically n_i / n) the gap is

    gd_n = T_n - sum_i (n_i / n) T_{n_i}(i),

the difference between the pooled index and the size-weighted subgroup
indices.  decomposability_gap forms it with the Takayama index; formed
with a decomposable index such as fgt_index over partition's groups, the
same difference vanishes identically.
Centered at the population gap, sqrt(n) gd_n is asymptotically normal with
variance theta1^2 + theta2^2, where theta1^2 aggregates within- and
cross-group covariances of the index kernels (the paper's seven components
A1 + A2 + A31 + A32 + 2 (B1 + B2 + B3)) and theta2^2 is a weighted
between-group variance of per-group scalars.  Centering at the mixed gap
(population indices, empirical weights) replaces theta2^2 by theta3^2, the
same construction without the index functional term.

Both partition kinds skip the seven components: each income x of group h
gets the influence value a_h(x) = phi_pool(x) - phi_h(x), where
phi = g - (B - E B) and B(x) is the integral of q over incomes at and above
x.  Then theta1^2 is sum_h p_h Var_h(a_h), and the per-group scalars are
E_h a_h.  Empirical subgroups read g and B from the plug-in variance's
core (asymptotics.influence_rows), once for the pooled sample and once
per group, in O(n log n) for any K; analytic subgroups integrate
a_h and a_h^2 over each component's quantile (population.gap_influence).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .asymptotics import ConfidenceInterval, influence_rows
from .distributions import AnalyticDistribution, mixture
from .errors import NumericalError
from .indices import takayama_empirical, takayama_population
from .population import gap_influence
from .samples import (EmpiricalDistribution, IncomeSample, PovertyConfig,
                      build_empirical)

GroupDistribution = Union[EmpiricalDistribution, AnalyticDistribution]


@dataclass(frozen=True, eq=False)
class Subgroup:
    label: str
    dist: GroupDistribution
    weight: float

    def __post_init__(self):
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"group weight must lie in (0, 1], got {self.weight}")
        if self.size is not None and self.size < 1:
            raise ValueError(f"empty group {self.label!r}")

    @property
    def size(self) -> Optional[int]:
        """Observations in an empirical group; None for an analytic one."""
        return self.dist.size if isinstance(self.dist, EmpiricalDistribution) else None


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
        try:
            dist = build_empirical(IncomeSample(member_values))
        except NumericalError as exc:
            raise NumericalError(f"group {lab!r}: {exc}") from exc
        groups.append(Subgroup(str(lab), dist, size / n))
    pooled = build_empirical(IncomeSample(values))
    return SubgroupPartition(tuple(groups), pooled)


def analytic_partition(components: Sequence[Tuple[str, AnalyticDistribution, float]]
                       ) -> SubgroupPartition:
    """Build a population partition; the pooled law is the weighted mixture."""
    groups = tuple(Subgroup(label, dist, weight) for label, dist, weight in components)
    pooled = mixture([g.dist for g in groups], [g.weight for g in groups])
    return SubgroupPartition(groups, pooled)


@dataclass(frozen=True)
class GapEstimate:
    """Global index, per-group indices, and the decomposability gap."""
    global_index: float
    local_indices: Tuple[float, ...]
    weights: Tuple[float, ...]
    gap: float

    @property
    def weighted_local_sum(self) -> float:
        return float(np.dot(self.weights, self.local_indices))


def _index(dist: GroupDistribution, config: PovertyConfig) -> float:
    if isinstance(dist, EmpiricalDistribution):
        return takayama_empirical(dist, config).value
    return takayama_population(dist, config).value


def decomposability_gap(part: SubgroupPartition, config: PovertyConfig) -> GapEstimate:
    """Gap between the pooled Takayama index and the weighted subgroup
    indices: empirical indices on an empirical partition, population
    indices (the population gap) on an analytic one."""
    global_index = _index(part.pooled, config)
    locals_ = tuple(_index(g.dist, config) for g in part.groups)
    weights = tuple(g.weight for g in part.groups)
    return GapEstimate(global_index, locals_, weights,
                       global_index - float(np.dot(weights, locals_)))


@dataclass(frozen=True)
class GapVariance:
    """Theorem-level variance pieces for the decomposability gap.

    Both routes take theta1^2 as a weighted sum of within-group variances
    of influence values a_h = phi_pool - phi_h, and the per-group scalars
    as E_h a_h (gap_scalars subtract the group's own index).
    """
    theta1_sq: float
    theta2_sq: float
    theta3_sq: float
    gap_scalars: Tuple[float, ...]
    mean_scalars: Tuple[float, ...]

    def __post_init__(self):
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


def _phi(dist: EmpiricalDistribution, config: PovertyConfig) -> np.ndarray:
    """phi = g - (B - E B) at each sorted value of dist, from the influence
    core."""
    g, b = influence_rows(dist.sorted_values[np.newaxis, :], np.array([dist.mean]), config)
    return g[0] - (b[0] - b[0].mean())


def _empirical_gap_influence(part: SubgroupPartition,
                             config: PovertyConfig) -> Tuple[float, list]:
    # For x in group h the gap's influence is a_h(x) - (T_h - sum_i p_i T_i)
    # with a_h = phi_pool - phi_h; theta1^2 is its within-group part.  Tied
    # values share one phi_pool, so any position of x in the pooled sample
    # reads it.
    pooled = part.pooled.sorted_values
    phi_pool = _phi(part.pooled, config)
    theta1, mean_scalars = 0.0, []
    for weight, grp in zip(part.weights, part.groups):
        x = grp.dist.sorted_values
        a = phi_pool[np.searchsorted(pooled, x)] - _phi(grp.dist, config)
        theta1 += weight * float(a.var())
        mean_scalars.append(float(a.mean()))
    return theta1, mean_scalars


def _weighted_variance(values: Sequence[float], weights: np.ndarray) -> float:
    """sum_h p_h (v_h - vbar)^2, centred first: E[v^2] - vbar^2 cancels when
    the values are large next to their spread."""
    deviations = np.asarray(values, dtype=float) - float(np.dot(weights, values))
    return float(np.dot(weights, deviations * deviations))


def gap_variance(part: SubgroupPartition, config: PovertyConfig) -> GapVariance:
    """The three thetas and the per-group scalars, on the empirical or the
    analytic route by the partition kind.

    The gap scalars subtract each group's own Takayama index (empirical or
    population, matching the partition kind) from its mean scalar.
    """
    if part.is_empirical:
        theta1, mean_scalars = _empirical_gap_influence(part, config)
    else:
        theta1, mean_scalars = gap_influence([g.dist for g in part.groups], part.weights,
                                             part.pooled.mean, config)
    gap_scalars = [m_h - _index(g.dist, config)
                   for m_h, g in zip(mean_scalars, part.groups)]
    p = part.weights
    return GapVariance(theta1, _weighted_variance(gap_scalars, p),
                       _weighted_variance(mean_scalars, p),
                       tuple(gap_scalars), tuple(mean_scalars))


def recompose_interval(weighted_local_sum: float,
                       gap_ci: ConfidenceInterval) -> ConfidenceInterval:
    """Global-index interval: weighted subgroup indices plus the gap CI."""
    return ConfidenceInterval(weighted_local_sum + gap_ci.center, gap_ci.half_width,
                              gap_ci.level)
