"""Empirical and population Takayama index, plus the FGT benchmark.

The empirical index is the L-statistic

    T_n = 1 + 1/n - 2 / (mu_n n^2) * sum_{j=1}^{q} (n - j + 1) X_{j,n}

over the ascending order statistics, with q the number of poor and mu_n the
full-sample mean.  Its population counterpart is

    T = 1 - (2 / mu) * integral of x (1 - F(x)) over incomes below the line,

evaluated over each mixture component's quantile so no density is
required (see population).  The FGT family serves as the exactly
decomposable benchmark.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import AnalyticDistribution
from .population import bind
from .samples import EmpiricalDistribution, PovertyConfig


@dataclass(frozen=True)
class IndexValue:
    value: float


def takayama_empirical(dist: EmpiricalDistribution, config: PovertyConfig) -> IndexValue:
    """Evaluate T_n exactly.  With no poor the sum is empty and T_n = 1 + 1/n."""
    value = takayama_rows(dist.sorted_values[np.newaxis, :], np.array([dist.mean]), config)
    return IndexValue(float(value[0]))


def takayama_rows(sorted_rows: np.ndarray, means: np.ndarray,
                  config: PovertyConfig) -> np.ndarray:
    """T_n of every row of an (m, n) array of ascending samples.

    means holds each row's sample mean.  The poor occupy a prefix of each
    sorted row, so the rank weights n - j + 1 apply to the longest prefix,
    with each row's non-poor entries in it zeroed.
    """
    n = sorted_rows.shape[1]
    poor = config.poor_mask(sorted_rows)
    q = int(np.count_nonzero(poor, axis=1).max())
    rank_weights = np.arange(n, n - q, -1, dtype=float)
    poor_values = np.where(poor[:, :q], sorted_rows[:, :q], 0.0)
    weighted = np.einsum("ij,j->i", poor_values, rank_weights)
    return 1.0 + 1.0 / n - 2.0 * weighted / (means * n * n)


def takayama_population(dist: AnalyticDistribution, config: PovertyConfig) -> IndexValue:
    """Evaluate T = 1 - 2 P(h) / mu, with P(h) the integral of
    x (1 - F(x)) over each component's quantile below the line."""
    law = bind(dist, config)
    return IndexValue(1.0 - 2.0 * law.p_h / law.mu)


def fgt_index(dist: EmpiricalDistribution, config: PovertyConfig,
              alpha: float) -> IndexValue:
    """FGT poverty index: mean of ((Z - X)/Z)^alpha over the poor.

    alpha = 0 gives the headcount ratio q/n (the zeroth power of a zero gap
    counts as 1 so incomes exactly at the line are still counted poor under
    the default comparison).
    """
    if alpha < 0:
        raise ValueError(f"FGT order must be non-negative, got {alpha}")
    z = config.poverty_line
    q = int(np.count_nonzero(config.poor_mask(dist.sorted_values)))
    if q == 0:
        return IndexValue(0.0)
    gaps = (z - dist.sorted_values[:q]) / z
    if alpha == 0:
        total = float(q)
    else:
        total = float(np.sum(gaps ** alpha))
    return IndexValue(total / dist.size)
