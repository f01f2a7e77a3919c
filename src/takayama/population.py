"""Population functionals of analytic laws as 1-D integrals over each
component's own quantile.

A law is a mixture sum_k w_k F_k of plain laws (a plain law is one
component), and E f(X) = sum_k w_k int_0^1 f(Q_k(u)) du, so the mixture's
quantile is never needed.  At a poor income x, with s_k = F_k(Z)
(F_k(Z-) under strict comparison),

    F(x) = sum_k w_k F_k(x),   g(x) = 2 P(h) x / mu^2 - 2 x (1 - F(x)) / mu,
    B(x) = -(2/mu) sum_k w_k int_{F_k(x)}^{s_k} Q_k,

the partial integrals of Q_k at a round's nodes coming from one
integrate_pieces call and a cumulative sum.  Above the line g is linear and
B = 0, so the tails come in closed form from each component's mean and
second moment.  T = 1 - 2 P(h) / mu, and the variances are moments of the
influence function phi = g - (B - E B): sigma1^2 = Var g, sigma2^2 = Var B,
sigma12 = -Cov(g, B), and the gap variance reads E_h a_h and Var_h a_h of
a_h = phi_pool - phi_h in each group h.
Integrands in u kink where Q_k(u) crosses another component's support end,
so F_k at those ends are breakpoints.  Integrals run to the tolerance of
PovertyConfig.quadrature, and those feeding other integrands to a tenth.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .distributions import AnalyticDistribution, mixture
from .quadrature import QuadratureSettings, integrate, integrate_pieces
from .samples import PovertyConfig


class Components:
    """Plain laws shared by one or more mixtures, bound to a poverty line."""

    def __init__(self, dists: Sequence[AnalyticDistribution], config: PovertyConfig):
        self.dists = tuple(dists)
        self.quad = config.quadrature
        line = config.poverty_line
        if config.strict_comparison:
            # s_k = F_k(Z-): an atom at the line is not poor.
            line = np.nextafter(line, -np.inf)
        self.s = np.array([float(np.clip(d.cdf(line), 0.0, 1.0)) for d in self.dists])
        ends = np.array(sorted({e for d in self.dists for e in d.support if math.isfinite(e)}))
        self.breaks = [np.asarray(d.cdf(ends), dtype=float) for d in self.dists]

    def head(self, k: int, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
             quad: Optional[QuadratureSettings] = None):
        """int_0^{s_k} fn(u, Q_k(u)) du; fn takes flat node arrays and may
        return leading axes, integrated on one subdivision."""
        quantile = self.dists[k].quantile

        def integrand(u):
            flat = u.ravel()
            values = fn(flat, np.asarray(quantile(flat), dtype=float))
            return values.reshape(values.shape[:-1] + u.shape)

        return integrate(integrand, 0.0, self.s[k], quad or self.quad, self.breaks[k])

    @functools.cached_property
    def tails(self) -> List[Tuple[float, float]]:
        """int Q_k and int Q_k^2 over (s_k, 1) for every component: the mean
        and second moment less their heads, or a tail quadrature when E X^2
        is not known."""
        out = []
        for k, dist in enumerate(self.dists):
            head = (self.head(k, lambda u, x: np.stack([x, x * x]), self.quad.tighter())
                    if self.s[k] > 0.0 else np.zeros(2))
            tail_q2 = (dist.second_moment - head[1] if dist.second_moment is not None else
                       integrate(lambda u: np.asarray(dist.quantile(u), dtype=float) ** 2,
                                 self.s[k], 1.0, self.quad))
            out.append((dist.mean - head[0], tail_q2))
        return out

    def cdfs(self, k: int, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        """F_j(x) for every component j at the incomes x = Q_k(u); row k is
        u itself."""
        return np.stack([u if j == k else np.asarray(d.cdf(x), dtype=float)
                         for j, d in enumerate(self.dists)])

    def upper_partials(self, cdfs: np.ndarray) -> np.ndarray:
        """int_{a}^{s_j} Q_j for every entry a of row j of cdfs."""
        out = np.zeros_like(cdfs)
        inner = self.quad.tighter()
        for j, dist in enumerate(self.dists):
            if self.s[j] <= 0.0:
                continue
            order = np.argsort(cdfs[j])
            edges = np.append(np.minimum(cdfs[j][order], self.s[j]), self.s[j])
            pieces = integrate_pieces(dist.quantile, edges, inner)
            out[j, order] = np.cumsum(pieces[::-1])[::-1]
        return out


class Law:
    """The mixture sum_k w_k F_k over shared components, with its index
    scalars mu and P(h) and its kernels g and B below the line."""

    def __init__(self, comps: Components, weights: np.ndarray, mean: float):
        self.comps = comps
        self.w = np.asarray(weights, dtype=float)
        self.mu = mean
        self.members = [k for k in range(self.w.size) if self.w[k] > 0.0]
        self.p_h = float(self.expect(lambda k, u, x: x * (1.0 - self.w @ comps.cdfs(k, u, x))))
        self.slope = 2.0 * self.p_h / self.mu ** 2

    def g(self, x: np.ndarray, cdfs: np.ndarray) -> np.ndarray:
        return self.slope * x - (2.0 / self.mu) * x * (1.0 - self.w @ cdfs)

    def bridge(self, partials: np.ndarray) -> np.ndarray:
        return (-2.0 / self.mu) * (self.w @ partials)

    def expect(self, head: Callable, tail: Optional[Callable] = None):
        """E f(X): head(k, u, x) gives f at the poor incomes x = Q_k(u) of
        component k, and tail(int Q_k, int Q_k^2 over (s_k, 1)) the part
        above the line (zero when tail is None)."""
        total = 0.0
        for k in self.members:
            part = 0.0 if tail is None else tail(*self.comps.tails[k])
            if self.comps.s[k] > 0.0:
                part = part + self.comps.head(k, lambda u, x: head(k, u, x))
            total = total + self.w[k] * part
        return total


def bind(dist: AnalyticDistribution, config: PovertyConfig) -> Law:
    weights, dists = zip(*dist.parts)
    return Law(Components(dists, config), np.array(weights), dist.mean)


def influence_variances(law: Law) -> Tuple[float, float, float]:
    """(Var g, Var B, -Cov(g, B)) under the law."""
    comps, slope = law.comps, law.slope

    def head(k, u, x):
        cdfs = comps.cdfs(k, u, x)
        g, b = law.g(x, cdfs), law.bridge(comps.upper_partials(cdfs))
        return np.stack([g, g * g, b, b * b, g * b])

    e_g, e_g2, e_b, e_b2, e_gb = law.expect(
        head, lambda tail_q, tail_q2: np.array([slope * tail_q, slope ** 2 * tail_q2,
                                                0.0, 0.0, 0.0]))
    return float(e_g2 - e_g ** 2), float(e_b2 - e_b ** 2), float(e_g * e_b - e_gb)


def gap_moments(groups: Sequence[AnalyticDistribution], weights: np.ndarray,
                config: PovertyConfig) -> List[Tuple[float, float]]:
    """(E_h a_h, Var_h a_h) with a_h = phi_pool - phi_h for each group h of
    the pooled law sum_h p_h F_h, whose parts mixture lays out group by
    group: group h weighs only its own block of the pooled components."""
    pool = bind(mixture(groups, weights), config)
    comps, raw = pool.comps, []
    ends = np.cumsum([len(dist.parts) for dist in groups])
    for dist, end in zip(groups, ends):
        w_h = np.zeros(ends[-1])
        w_h[end - len(dist.parts):end] = [q for q, _ in dist.parts]
        own = Law(comps, w_h, dist.mean)
        slope = pool.slope - own.slope

        def head(k, u, x, own=own):
            cdfs = comps.cdfs(k, u, x)
            partials = comps.upper_partials(cdfs)
            b_pool, b_own = pool.bridge(partials), own.bridge(partials)
            a = pool.g(x, cdfs) - own.g(x, cdfs) - (b_pool - b_own)
            return np.stack([a, a * a, b_pool, b_own])

        raw.append(own.expect(head, lambda tail_q, tail_q2, slope=slope: np.array(
            [slope * tail_q, slope ** 2 * tail_q2, 0.0, 0.0])))
    # a_h carries E_pool B_pool - E_h B_h on top of the centred kernels.
    pool_bridge = sum(p_h * e_b_pool for p_h, (_, _, e_b_pool, _) in zip(weights, raw))
    return [(float(e_a - e_b_own + pool_bridge), float(e_a2 - e_a ** 2))
            for e_a, e_a2, _, e_b_own in raw]
