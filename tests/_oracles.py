"""Independent numerical oracles for the test suite.

These deliberately avoid the library's closed-form assembly paths: the gap
variance oracle works from first-principles influence functions of the
two-stage sampling scheme, the brute-force helpers recompute grid sums
and influence values term by term (the plug-in variance and the gap
thetas over all pairs of observations), the cell-sum plug-in variance
and the cell-sum gap variance (the seven A/B components of an empirical
partition) sum exact Brownian-bridge integrals over quantile cells,
the row-wise CSV reader checks the vectorised one, and the one-replicate-
at-a-time study loop (with its own index, plug-in variance and draws)
checks the chunked replicate engine.  The nested quadratures of the
population variance and of the analytic gap variance's seven components,
on scipy's QUADPACK and a mixture's brentq quantile (brentq_quantile,
also the reference for the library's bisection quantile), check the 1-D
influence quadratures of takayama.population.  The influence-function gap
oracle builds on the same QUADPACK kernels, with the library's vectorised
quantile on its bridge grid.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from takayama.asymptotics import VarianceDecomposition, confidence_interval
from takayama.decomposition import (_weighted_variance, decomposability_gap,
                                    gap_variance, partition)
from takayama.errors import DataFormatError, NumericalError, QuadratureError
from takayama.indices import IndexValue, takayama_empirical, takayama_population
from takayama.io import RunConfig
from takayama.montecarlo import (TARGET_TAKAYAMA, ReplicateRecords, _replicate_rng,
                                 population_truth)
from takayama.quadrature import MAX_SUBDIVISIONS, QuadratureSettings
from takayama.samples import IncomeSample, build_empirical


def bisection_normal_quantile(p: float, tol: float = 1e-12) -> float:
    """Invert the erfc-based normal CDF by plain bisection."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


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


def brute_force_sigma2(nu_values: np.ndarray) -> float:
    """Direct double loop over all cell pairs via bridge_cell_integral."""
    n = len(nu_values)
    total = 0.0
    for j in range(n):
        for k in range(n):
            total += nu_values[j] * nu_values[k] * bridge_cell_integral(
                j / n, (j + 1) / n, k / n, (k + 1) / n)
    return total


def brentq_quantile(dist):
    """A law's quantile as a function of one point: a plain law's own, and a
    mixture's by brentq on its CDF between the smallest and largest
    component quantile (xtol 1e-13, rtol 8.9e-16)."""
    if not dist.components:
        return dist.quantile
    comps = [law for _, law in dist.components]
    cdf = dist.cdf

    def _invert_one(s: float) -> float:
        qs = [float(comp.quantile(s)) for comp in comps]
        lo, hi = min(qs), max(qs)
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            return lo
        return brentq(lambda x: float(cdf(x)) - s, lo, hi, xtol=1e-13, rtol=8.9e-16)

    return _invert_one


class _BridgeTail:
    """R(u) = integral of q(Q(s)) over [min(u, s_z), s_z], on a dense grid."""

    def __init__(self, dist, kernels: "_NestedKernels", grid_points: int = 20001):
        s_z = kernels.s_poor
        self.s_z = s_z
        if s_z <= 0.0:
            self.grid = np.array([0.0, 1.0])
            self.values = np.array([0.0, 0.0])
            return
        s = np.linspace(0.0, s_z, grid_points)
        mids = 0.5 * (s[1:] + s[:-1])
        steps = np.diff(s) * kernels.q(dist.quantile(mids))
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        # R(u) = total - cumulative up to u
        self.grid = s
        self.values = cum[-1] - cum

    def __call__(self, u: float) -> float:
        if u >= self.s_z:
            return 0.0
        return float(np.interp(u, self.grid, self.values))


def gap_variance_influence_oracle(groups, weights, config,
                                  quad_tol: float = 1e-9):
    """(Var for gd-centering, Var for mixed-centering) from the influence
    function of the two-stage draw: pooled index linearization minus the
    weighted group linearizations minus the multinomial weight term.
    """
    from takayama.distributions import mixture

    weights = np.asarray(weights, dtype=float)
    pooled = mixture(groups, weights)
    settings = QuadratureSettings(abs_tol=quad_tol)
    k_glob = _NestedKernels(pooled, config, settings)
    k_grp = [_NestedKernels(g, config, settings) for g in groups]
    r_glob = _BridgeTail(pooled, k_glob)
    r_grp = [_BridgeTail(g, k) for g, k in zip(groups, k_grp)]

    # h-dependent centering constants
    e_g_h, c_h, t_h = [], [], []
    for h, grp in enumerate(groups):
        e_g_h.append(quad(lambda t: float(k_grp[h].g(grp.quantile(t))), 0, 1,
                          points=[k_grp[h].s_poor], limit=200)[0])
        c_h.append(quad(lambda s: s * float(k_grp[h].q(grp.quantile(s)))
                        if s < k_grp[h].s_poor else 0.0,
                        0, 1, points=[k_grp[h].s_poor], limit=200)[0])
        t_h.append(takayama_population(grp, replace(config, quadrature=settings)).value)

    def phi0(h: int, x: float) -> float:
        grp = groups[h]
        return (float(k_glob.g(x)) - r_glob(float(pooled.cdf(x)))
                - float(k_grp[h].g(x)) + e_g_h[h]
                + r_grp[h](float(grp.cdf(x))) - c_h[h])

    def moments(shift_by_t: bool):
        first = 0.0
        second = 0.0
        for h, grp in enumerate(groups):
            shift = -t_h[h] if shift_by_t else 0.0
            f = lambda t: phi0(h, float(grp.quantile(t))) + shift
            first += weights[h] * quad(f, 0, 1, points=[k_grp[h].s_poor], limit=400)[0]
            second += weights[h] * quad(lambda t: f(t) ** 2, 0, 1,
                                        points=[k_grp[h].s_poor], limit=400)[0]
        return second - first ** 2

    return moments(True), moments(False)


@dataclass(frozen=True)
class GapComponents:
    """theta1^2 through the paper's seven within- and cross-group
    components, theta1^2 = A1 + A2 + A31 + A32 + 2 (B1 + B2 + B3), with
    theta2^2, theta3^2 and the per-group scalars.

    B1 and B3 are covariances between the mean-level kernel difference
    (g - g_i) and bridge-integral terms; like sigma12 they inherit a
    leading minus sign from the residual term, and the per-group scalars
    subtract (not add) the mixed moment E[F_h(X^i) q(X^i)].
    """
    a1: float
    a2: float
    a31: float
    a32: float
    b1: float
    b2: float
    b3: float
    theta1_sq: float
    theta2_sq: float
    theta3_sq: float
    gap_scalars: Tuple[float, ...]
    mean_scalars: Tuple[float, ...]

    def __post_init__(self):
        assembled = (self.a1 + self.a2 + self.a31 + self.a32
                     + 2.0 * (self.b1 + self.b2 + self.b3))
        if abs(assembled - self.theta1_sq) > 1e-9 * max(1.0, abs(assembled)):
            raise NumericalError("variance assembly inconsistent")

    @property
    def gap_centered_total(self) -> float:
        return self.theta1_sq + self.theta2_sq

    @property
    def mixed_centered_total(self) -> float:
        return self.theta1_sq + self.theta3_sq


def _empirical_kernels(dist, config):
    """(g, q) of a sorted sample as functions of income, with F_n the
    right-continuous step CDF and P(h) the sample mean of h."""
    x, mu = dist.sorted_values, dist.mean
    f_at = np.searchsorted(x, x, side="right") / dist.size
    p_h = float((x * (1.0 - f_at) * config.poor_mask(x)).mean())

    def g(v):
        v = np.asarray(v, dtype=float)
        f_v = np.searchsorted(x, v, side="right") / dist.size
        h = v * (1.0 - f_v) * config.poor_mask(v)
        return 2.0 * (p_h * v / mu ** 2 - h / mu)

    def q(v):
        v = np.asarray(v, dtype=float)
        return -2.0 * (v * config.poor_mask(v)) / mu

    return g, q


def cell_sum_gap_variance_oracle(part, config) -> GapComponents:
    """The seven A/B components and three thetas of an empirical partition,
    each integral summed exactly over quantile cells (O(K^3 n) loops).

    The cell convention differs from the library's per-observation
    influence vectors by O(1/n_i) per group; theta2^2 and theta3^2 use the
    same per-group scalars up to a common shift, which their weighted
    variance ignores.
    """
    g_glob, q_glob = _empirical_kernels(part.pooled, config)
    groups = part.groups
    k = len(groups)
    p = np.array([g.weight for g in groups])

    # Per-group arrays at the group's own order statistics.
    xs, sizes = [], []
    d_arrs, w_arrs, c_arrs = [], [], []
    for grp in groups:
        xi = grp.dist.sorted_values
        g_i, q_i = _empirical_kernels(grp.dist, config)
        c = q_glob(xi)
        d_arrs.append(g_glob(xi) - g_i(xi))
        w_arrs.append(grp.weight * c - q_i(xi))
        c_arrs.append(c)
        xs.append(xi)
        sizes.append(grp.dist.size)

    a1 = float(np.dot(p, [d.var() for d in d_arrs]))
    a2 = float(np.dot(p, [bridge_quadratic_step(w) for w in w_arrs]))

    def group_cdf_at(h: int, values: np.ndarray) -> np.ndarray:
        return np.searchsorted(xs[h], values, side="right") / sizes[h]

    a31 = 0.0
    for i in range(k):
        ci, ni = c_arrs[i], sizes[i]
        suffix = np.concatenate([np.cumsum(ci[::-1])[::-1][1:], [0.0]])
        for h in range(k):
            if h == i:
                continue
            a = group_cdf_at(h, xs[i])
            quad_form = (np.dot(a * ci, ci) + 2.0 * np.dot(a * ci, suffix)) / ni ** 2
            a31 += p[i] ** 2 * p[h] * (quad_form - (np.dot(ci, a) / ni) ** 2)

    a32 = 0.0
    for i in range(k):
        for j in range(k):
            if j == i:
                continue
            ci, cj = c_arrs[i], c_arrs[j]
            ni, nj = sizes[i], sizes[j]
            for h in range(k):
                if h in (i, j):
                    continue
                a = group_cdf_at(h, xs[i])
                b = group_cdf_at(h, xs[j])
                cb_prefix = np.concatenate([[0.0], np.cumsum(cj * b)])
                c_prefix = np.concatenate([[0.0], np.cumsum(cj)])
                pos = np.searchsorted(b, a, side="right")
                mixed = cb_prefix[pos] + a * (c_prefix[-1] - c_prefix[pos])
                cross = float(np.dot(ci, mixed)) / (ni * nj)
                a32 += (p[i] * p[j] * p[h]
                        * (cross - (np.dot(ci, a) / ni) * (np.dot(cj, b) / nj)))

    # B terms share per-group prefix machinery for D_i(s) = int_0^s d_i(Q_i).
    def cell_integral_of_s(n: int) -> np.ndarray:
        j = np.arange(1, n + 1, dtype=float)
        return (2.0 * j - 1.0) / (2.0 * n * n)

    b1 = 0.0
    for i in range(k):
        d, w_vals, ni = d_arrs[i], w_arrs[i], sizes[i]
        total = float(d.mean())
        cum_prev = (np.cumsum(d) - d) / ni
        lo = np.arange(ni, dtype=float) / ni
        cell_s = cell_integral_of_s(ni)
        bracket = (cum_prev - lo * d) / ni + (d - total) * cell_s
        b1 -= p[i] * float(np.dot(w_vals, bracket))

    b2 = 0.0
    b3 = 0.0
    for i in range(k):
        w_vals, d, ni = w_arrs[i], d_arrs[i], sizes[i]
        cell_s = cell_integral_of_s(ni)
        w_cell_prefix = np.concatenate([[0.0], np.cumsum(w_vals * cell_s)])
        w_prefix = np.concatenate([[0.0], np.cumsum(w_vals)])
        w_cell_total = w_cell_prefix[-1]
        w_total = w_prefix[-1]
        d_prefix = np.concatenate([[0.0], np.cumsum(d)]) / ni
        total_i = float(d.mean())
        for j in range(k):
            if j == i:
                continue
            cj, nj = c_arrs[j], sizes[j]
            counts = np.searchsorted(xs[i], xs[j], side="right")
            frac = counts / ni
            # W_i(b) at grid points b = counts / n_i, in closed form.
            w_at = (w_cell_prefix[counts]
                    + frac * (w_total - w_prefix[counts]) / ni
                    - frac * w_cell_total)
            b2 += p[i] * p[j] * float(np.dot(cj, w_at)) / nj
            bracket = d_prefix[counts] - frac * total_i
            b3 -= p[i] * p[j] * float(np.dot(cj, bracket)) / nj

    theta1 = a1 + a2 + a31 + a32 + 2.0 * (b1 + b2 + b3)

    mean_scalars = []
    gap_scalars = []
    for h in range(k):
        e_g = float(g_glob(xs[h]).mean())
        mixed_moment = 0.0
        for i in range(k):
            mixed_moment += p[i] * float(np.mean(group_cdf_at(h, xs[i]) * c_arrs[i]))
        m_h = e_g - mixed_moment
        mean_scalars.append(m_h)
        gap_scalars.append(m_h - takayama_empirical(groups[h].dist, config).value)

    theta2 = _weighted_variance(gap_scalars, p)
    theta3 = _weighted_variance(mean_scalars, p)
    return GapComponents(a1, a2, a31, a32, b1, b2, b3, theta1, theta2, theta3,
                         tuple(gap_scalars), tuple(mean_scalars))


def brute_force_gap_thetas(values, labels, config):
    """(theta1^2, theta2^2, theta3^2) of an empirical partition from the
    influence value of each observation, every sum written out over all
    pairs (O(n^2); small samples only).

    For x in group h, a_h(x) = phi_pool(x) - phi_h(x) with
    phi(x) = g(x) - (B(x) - mean B), g(x) = 2 (P(h) x / mu^2 - h(x) / mu),
    h(x) = x (1 - F_n(x)) 1{x poor} and B(x) = (1/n) sum over X_k >= x of
    q(X_k) = -2 X_k 1{X_k poor} / mu.  Then theta1^2 = sum_h p_h Var_h a_h,
    and theta2^2 / theta3^2 are the weighted variances of E_h a_h - T_h and
    E_h a_h.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=object)
    line = config.poverty_line

    def poor(v):
        return v < line if config.strict_comparison else v <= line

    def phi(sample, at):
        mu = sample.mean()
        below = sample[None, :] <= at[:, None]
        h_at = at * (1.0 - below.mean(axis=1)) * poor(at)
        p_h = np.mean(sample * (1.0 - (sample[None, :] <= sample[:, None]).mean(axis=1))
                      * poor(sample))
        q = -2.0 * sample * poor(sample) / mu
        b_at = ((sample[None, :] >= at[:, None]) * q).sum(axis=1) / sample.size
        b_mean = ((sample[None, :] >= sample[:, None]) * q).sum(axis=1).mean() / sample.size
        return 2.0 * (p_h * at / mu ** 2 - h_at / mu) - (b_at - b_mean)

    weights, within, means, local = [], [], [], []
    for lab in dict.fromkeys(labels.tolist()):
        member = values[labels == lab]
        a = phi(values, member) - phi(member, member)
        weights.append(member.size / values.size)
        within.append(a.var())
        means.append(a.mean())
        local.append(takayama_empirical(build_empirical(IncomeSample(member)), config).value)
    weights, means = np.array(weights), np.array(means)

    def weighted_var(v):
        return float(np.dot(weights, (v - np.dot(weights, v)) ** 2))

    return (float(np.dot(weights, within)), weighted_var(means - np.array(local)),
            weighted_var(means))


def influence_sigma_oracle(dist, config) -> VarianceDecomposition:
    """Plug-in variance of one sample from the influence value of each
    observation, every sum written out over all pairs (O(n^2); small
    samples only).

    phi(x) = g(x) - (B(x) - mean B) with g(x) = 2 (P(h) x / mu^2 - h(x) / mu),
    h(x) = x (1 - F_n(x)) 1{x poor} and B(x) = (1/n) sum over X_k >= x of
    q(X_k) = -2 X_k 1{X_k poor} / mu.  Then sigma1^2 = Var g,
    sigma2^2 = Var B, sigma12 = -Cov(g, B) and the total is Var phi.
    """
    x = np.asarray(dist.sorted_values, dtype=float)
    mu = x.mean()
    line = config.poverty_line
    poor = x < line if config.strict_comparison else x <= line
    h = x * (1.0 - (x[None, :] <= x[:, None]).mean(axis=1)) * poor
    g = 2.0 * (h.mean() * x / mu ** 2 - h / mu)
    q = -2.0 * x * poor / mu
    b = ((x[None, :] >= x[:, None]) * q).sum(axis=1) / x.size
    gc, bc = g - g.mean(), b - b.mean()
    phi = gc - bc
    return VarianceDecomposition(float(np.mean(gc * gc)), float(np.mean(bc * bc)),
                                 -float(np.mean(gc * bc)), float(np.mean(phi * phi)))


def ingest_csv_rowwise_oracle(path: str, config: RunConfig) -> IncomeSample:
    """Read survey rows into an IncomeSample, one csv.DictReader row at a
    time: the reader `takayama.io.ingest_csv` replaced, kept as its oracle.

    The income column is required.  Adult-equivalence divisors are applied
    when the (configurable) column is present; group labels are attached
    when config.group_column is set.  Errors carry the offending column
    name or 1-based data-row number.
    """
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataFormatError(f"{path}: empty file")
        header = list(reader.fieldnames)

        if config.income_column not in header:
            raise DataFormatError(f"missing column: {config.income_column}")
        if config.group_column is not None and config.group_column not in header:
            raise DataFormatError(f"missing column: {config.group_column}")
        equiv_column = config.adult_equiv_column
        if equiv_column is not None and equiv_column not in header:
            raise DataFormatError(f"missing column: {equiv_column}")
        if equiv_column is None and "adult_equiv" in header:
            equiv_column = "adult_equiv"

        incomes, labels, divisors = [], [], []
        for row_number, row in enumerate(reader, start=1):
            raw = (row.get(config.income_column) or "").strip()
            try:
                income = float(raw)
            except ValueError:
                raise DataFormatError(f"row {row_number}: income not numeric") from None
            if not np.isfinite(income) or income < 0:
                raise DataFormatError(f"row {row_number}: income must be a non-negative number")
            incomes.append(income)
            if config.group_column is not None:
                label = (row.get(config.group_column) or "").strip()
                if not label:
                    raise DataFormatError(f"row {row_number}: empty group label")
                labels.append(label)
            if equiv_column is not None:
                raw_div = (row.get(equiv_column) or "").strip()
                try:
                    divisor = float(raw_div)
                except ValueError:
                    raise DataFormatError(
                        f"row {row_number}: {equiv_column} not numeric") from None
                if not np.isfinite(divisor) or divisor <= 0:
                    raise DataFormatError(f"row {row_number}: {equiv_column} must be positive")
                divisors.append(divisor)

    if not incomes:
        raise DataFormatError(f"{path}: no data rows")
    return IncomeSample(
        np.asarray(incomes, dtype=float),
        group_labels=np.asarray(labels, dtype=object) if labels else None,
        equivalence_divisors=np.asarray(divisors, dtype=float) if divisors else None)


def takayama_empirical_oracle(dist, config) -> IndexValue:
    """T_n as one dot product over the q poor order statistics."""
    n = dist.size
    side = "left" if config.strict_comparison else "right"
    q = int(np.searchsorted(dist.sorted_values, config.poverty_line, side=side))
    ranks = np.arange(1, q + 1, dtype=float)
    weighted = float(np.dot(n - ranks + 1.0, dist.sorted_values[:q]))
    value = 1.0 + 1.0 / n - 2.0 * weighted / (dist.mean * n * n)
    return IndexValue(value)


def cell_sum_sigma_oracle(dist, config) -> VarianceDecomposition:
    """Plug-in variance of one sorted sample with every integral summed
    exactly over the n quantile cells (the route takayama.asymptotics took
    before its influence core): kernels from _empirical_kernels, ranks of
    tied values from searchsorted, and the bridge suffix sum in full.  On
    tie-free data it differs from the influence moments by O(1/n)."""
    g, _ = _empirical_kernels(dist, config)
    x = dist.sorted_values
    n = dist.size
    g_at = g(x)
    p_g = float(g_at.mean())
    sigma1 = float(np.mean((g_at - p_g) ** 2))

    nu = np.where(config.poor_mask(x), -2.0 * x / dist.mean, 0.0)
    j = np.arange(1, n + 1, dtype=float)
    cell_lo = (j - 1.0) / n
    cell_hi = j / n
    width = 1.0 / n
    cell_s = (2.0 * j - 1.0) / (2.0 * n * n)
    diag = (cell_hi ** 3 - cell_lo ** 3) / 3.0 - cell_lo ** 2 * width - cell_s ** 2
    tail = np.zeros(n)
    contrib = nu * (width - cell_s)
    tail[:-1] = np.cumsum(contrib[::-1])[::-1][1:]
    sigma2 = float(np.dot(nu * nu, diag) + 2.0 * np.dot(nu * cell_s, tail))

    last_le = np.searchsorted(x, x, side="right") - 1
    partial_g = np.cumsum(g_at)[last_le] / n
    sigma12 = -float(np.dot(nu, partial_g * width - p_g * cell_s))
    return VarianceDecomposition.assemble(sigma1, sigma2, sigma12)


def draw_mixture_sample_oracle(dist, n: int, rng) -> IncomeSample:
    """n two-stage draws from rng: one searchsorted over the cumulative
    weights of dist's parts picks them, a second uniform vector feeds their
    quantile functions through boolean masks."""
    weights = [w for w, _ in dist.parts]
    laws = [law for _, law in dist.parts]
    idx = np.searchsorted(np.cumsum(weights), rng.random(n), side="right")
    np.clip(idx, 0, len(laws) - 1, out=idx)
    u = rng.random(n)
    values = np.empty(n, dtype=float)
    for i, law in enumerate(laws):
        mask = idx == i
        if mask.any():
            values[mask] = law.quantile(u[mask])
    labels = np.array([str(i) for i in range(len(laws))], dtype=object)[idx]
    return IncomeSample(values, group_labels=labels)


def run_replicates_loop_oracle(study, target=TARGET_TAKAYAMA,
                               compute_variance=True) -> ReplicateRecords:
    """The replicate study one replicate at a time: draw, sort, score and
    build the interval of each replicate in turn."""
    truth = population_truth(study.model, study.config, target)
    n = study.sample_size
    r = study.replicate_count
    config = study.config

    values = np.full(r, np.nan)
    variances = np.full(r, np.nan)
    ci_hits = np.zeros(r, dtype=bool)
    degenerate = np.zeros(r, dtype=bool)
    for rep in range(r):
        sample = draw_mixture_sample_oracle(study.model, n, _replicate_rng(study.seed, rep))
        try:
            if target == TARGET_TAKAYAMA:
                dist = build_empirical(sample)
                values[rep] = takayama_empirical_oracle(dist, config).value
                if compute_variance:
                    variances[rep] = influence_sigma_oracle(dist, config).total
            else:
                part = partition(sample)
                values[rep] = decomposability_gap(part, config).gap
                if compute_variance:
                    variances[rep] = gap_variance(part, config).gap_centered_total
            if compute_variance:
                ci = confidence_interval(values[rep], max(variances[rep], 0.0),
                                         n, config.confidence_level)
                ci_hits[rep] = ci.contains(truth)
        except NumericalError:
            degenerate[rep] = True
    return ReplicateRecords(target, truth, values, variances, ci_hits, degenerate)


def bootstrap_variance_loop_oracle(values, config, resamples: int, seed: int) -> float:
    """n times the variance of the index over resamples drawn, sorted and
    scored one at a time."""
    values = np.asarray(values, dtype=float)
    n = values.size
    rng = np.random.default_rng(seed)
    stats = np.empty(resamples)
    for b in range(resamples):
        draw = values[rng.integers(0, n, n)]
        stats[b] = takayama_empirical_oracle(build_empirical(IncomeSample(draw)), config).value
    return n * float(stats.var(ddof=1))


# ---------------------------------------------------------------------------
# nested quadrature of the population variance and the seven gap components


def _quad(fn, lo: float, hi: float, settings: QuadratureSettings, breakpoints=()) -> float:
    """scipy quad of a scalar integrand to the settings' tolerance, raising
    QuadratureError when the error estimate exceeds it."""
    if hi <= lo:
        return 0.0
    pts = sorted(p for p in breakpoints if lo < p < hi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, abserr = quad(fn, lo, hi, epsabs=max(settings.abs_tol, 1e-14),
                             epsrel=0, limit=MAX_SUBDIVISIONS,
                             points=pts if pts else None)
    if abserr > settings.abs_tol:
        raise QuadratureError(f"quadrature did not converge: achieved {abserr:.3e}, "
                              f"requested {settings.abs_tol:.3e}")
    return value


def _kinks(dist, laws) -> list:
    """F at the finite support ends of the laws: where integrands along
    the quantile of dist kink."""
    ends = [e for law in laws for e in law.support if math.isfinite(e)]
    return [float(dist.cdf(e)) for e in ends]


class _NestedKernels:
    """g and q of one analytic law, with P(h) and E g by scalar quadrature
    along the law's own quantile (brentq for a mixture)."""

    def __init__(self, dist, config, settings: QuadratureSettings):
        self.config = config
        self.mu = dist.mean
        self.cdf = dist.cdf
        self.s_poor = float(np.clip(dist.cdf(config.poverty_line), 0.0, 1.0))
        quantile = brentq_quantile(dist)
        self.kinks = _kinks(dist, [law for _, law in dist.components])
        self.p_h = _quad(lambda s: float(quantile(s)) * (1.0 - s), 0.0, self.s_poor, settings,
                         self.kinks)
        head_g = _quad(lambda s: float(self.g(quantile(s))), 0.0, self.s_poor, settings,
                       self.kinks)
        head_q = _quad(lambda s: float(quantile(s)), 0.0, self.s_poor, settings, self.kinks)
        self.p_g = head_g + (2.0 * self.p_h / self.mu ** 2) * (self.mu - head_q)

    def g(self, x):
        x = np.asarray(x, dtype=float)
        h = x * (1.0 - np.asarray(self.cdf(x), dtype=float)) * self.config.poor_mask(x)
        return 2.0 * (self.p_h * x / self.mu ** 2 - h / self.mu)

    def q(self, x):
        x = np.asarray(x, dtype=float)
        return -2.0 * x * self.config.poor_mask(x) / self.mu


def nested_sigma_oracle(dist, config,
                        settings: QuadratureSettings = QuadratureSettings()
                        ) -> VarianceDecomposition:
    """sigma1^2, sigma2^2 and sigma12 by nested quadrature in the law's
    quantile space: the bridge forms as double integrals over the unit
    square, inner integrals at a tenth of the tolerance."""
    kernels = _NestedKernels(dist, config, settings)
    s_z = kernels.s_poor
    if s_z <= 0.0:
        return VarianceDecomposition.assemble(0.0, 0.0, 0.0)
    quantile = brentq_quantile(dist)
    inner = settings.tighter()
    kinks = kernels.kinks

    # sigma1^2 = E g^2 - (E g)^2, tail handled through the linear branch.
    head_g2 = _quad(lambda s: float(kernels.g(quantile(s))) ** 2, 0.0, s_z, settings, kinks)
    slope = 2.0 * kernels.p_h / kernels.mu ** 2
    if dist.second_moment is not None:
        head_q2 = _quad(lambda s: float(quantile(s)) ** 2, 0.0, s_z, inner, kinks)
        tail_g2 = slope ** 2 * (dist.second_moment - head_q2)
    else:
        tail_g2 = slope ** 2 * _quad(lambda s: float(quantile(s)) ** 2, s_z, 1.0, settings,
                                     kinks)
    sigma1 = head_g2 + tail_g2 - kernels.p_g ** 2

    def nu(s: float) -> float:
        return -2.0 * float(quantile(s)) / kernels.mu

    # sigma2^2 over the two triangles around the diagonal.
    def low_part(s: float) -> float:
        return _quad(lambda t: t * nu(t), 0.0, s, inner, kinks)

    def high_part(s: float) -> float:
        return _quad(lambda t: (1.0 - t) * nu(t), s, s_z, inner, kinks)

    sigma2 = _quad(lambda s: nu(s) * ((1.0 - s) * low_part(s) + s * high_part(s)),
                   0.0, s_z, settings, kinks)

    # sigma12 = - int nu(s) (int_0^s g(Q) dt - s E g) ds.
    def partial_g(s: float) -> float:
        return _quad(lambda t: float(kernels.g(quantile(t))), 0.0, s, inner, kinks)

    sigma12 = -_quad(lambda s: nu(s) * (partial_g(s) - s * kernels.p_g), 0.0, s_z, settings,
                     kinks)
    return VarianceDecomposition.assemble(sigma1, sigma2, sigma12)


def nested_gap_variance_oracle(part, config,
                               settings: QuadratureSettings = QuadratureSettings()
                               ) -> GapComponents:
    """The seven A/B components of an analytic partition by nested
    quadrature (three levels deep for A32), the pooled kernels along the
    mixture's brentq quantile, and theta1^2 assembled from them."""
    k_glob = _NestedKernels(part.pooled, config, settings)
    groups = part.groups
    k = len(groups)
    p = np.array([g.weight for g in groups])
    kernels = [_NestedKernels(g.dist, config, settings) for g in groups]
    quantiles = [brentq_quantile(g.dist) for g in groups]
    cdfs = [g.dist.cdf for g in groups]
    s_star = [ki.s_poor for ki in kernels]
    inner = settings.tighter()
    # Integrands along group i's quantile kink at F_i(support ends).
    kinks = [_kinks(g.dist, [other.dist for other in groups]) for g in groups]

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
        brk = [s_star[i], *kinks[i]]
        mean_d = _quad(lambda t: d_fn(i, t), 0.0, 1.0, settings, brk)
        mean_d2 = _quad(lambda t: d_fn(i, t) ** 2, 0.0, 1.0, settings, brk)
        a1 += p[i] * (mean_d2 - mean_d ** 2)

    # A2: bridge quadratic form of (p_i q - q_i) along the group quantile.
    a2 = 0.0
    for i in range(k):
        hi = s_star[i]
        if hi <= 0.0:
            continue

        def low_part(s, i=i):
            return _quad(lambda t: t * w_fn(i, t), 0.0, s, inner, kinks[i])

        def high_part(s, i=i, hi=hi):
            return _quad(lambda t: (1.0 - t) * w_fn(i, t), s, hi, inner, kinks[i])

        a2 += p[i] * _quad(
            lambda s: w_fn(i, s) * ((1.0 - s) * low_part(s) + s * high_part(s)),
            0.0, hi, settings, kinks[i])

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

            def warped_prefix(s, i=i):
                return _quad(lambda t: c_fn(i, t) * phi(t), 0.0, s, inner, kinks[i])

            cross = _quad(lambda s: c_fn(i, s) * warped_prefix(s), 0.0, hi, settings,
                          kinks[i])
            mean_warped = _quad(lambda t: c_fn(i, t) * phi(t), 0.0, hi, settings, kinks[i])
            a31 += p[i] ** 2 * p[h] * (2.0 * cross - mean_warped ** 2)

    # A32: distinct-group pair against a third group's CDF; the inner
    # integrand kinks where F_h(Q_j(t)) crosses F_h(Q_i(s)), at t = F_j(Q_i(s)).
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

                def inner_at(s, i=i, j=j, h=h):
                    a = float(cdfs[h](quantiles[i](s)))
                    return _quad(lambda t: c_fn(j, t) * (min(a, float(cdfs[h](quantiles[j](t))))
                                                         - a * float(cdfs[h](quantiles[j](t)))),
                                 0.0, s_star[j], inner,
                                 [float(cdfs[j](quantiles[i](s))), *kinks[j]])

                a32 += p[i] * p[j] * p[h] * _quad(lambda s: c_fn(i, s) * inner_at(s),
                                                  0.0, s_star[i], settings, kinks[i])

    # D_i(s) = int_0^s (g - g_i)(Q_i); the common ingredient of B1/B3.
    def d_prefix(i: int, s: float) -> float:
        return _quad(lambda t: d_fn(i, t), 0.0, s, inner, [s_star[i], *kinks[i]])

    d_total = [_quad(lambda t: d_fn(i, t), 0.0, 1.0, settings, [s_star[i], *kinks[i]])
               for i in range(k)]

    b1 = 0.0
    for i in range(k):
        hi = s_star[i]
        if hi <= 0.0:
            continue
        b1 -= p[i] * _quad(lambda s: w_fn(i, s) * (d_prefix(i, s) - s * d_total[i]),
                           0.0, hi, settings, kinks[i])

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
                    return _quad(lambda s: w_fn(i, s) * (min(s, b) - s * b),
                                 0.0, s_star[i], inner, [b, *kinks[i]])

                b2 += p[i] * p[j] * _quad(lambda t: c_fn(j, t) * w_bridge(phi_ij(t)),
                                          0.0, s_star[j], settings, kinks[j])

            b3 -= p[i] * p[j] * _quad(
                lambda t: c_fn(j, t) * (d_prefix(i, phi_ij(t)) - phi_ij(t) * d_total[i]),
                0.0, s_star[j], settings, kinks[j])

    theta1 = a1 + a2 + a31 + a32 + 2.0 * (b1 + b2 + b3)

    slope = 2.0 * k_glob.p_h / k_glob.mu ** 2
    mean_scalars = []
    gap_scalars = []
    for h in range(k):
        hi = s_star[h]
        head_g = _quad(lambda t: float(k_glob.g(quantiles[h](t))), 0.0, hi, settings,
                       kinks[h])
        head_q = _quad(lambda t: float(quantiles[h](t)), 0.0, hi, settings, kinks[h])
        e_g = head_g + slope * (groups[h].dist.mean - head_q)
        mixed_moment = 0.0
        for i in range(k):
            if s_star[i] <= 0.0:
                continue
            mixed_moment += p[i] * _quad(
                lambda t: float(cdfs[h](quantiles[i](t))) * c_fn(i, t), 0.0, s_star[i], settings,
                kinks[i])
        m_h = e_g - mixed_moment
        mean_scalars.append(m_h)
        gap_scalars.append(m_h - (1.0 - 2.0 * kernels[h].p_h / kernels[h].mu))

    theta2 = _weighted_variance(gap_scalars, p)
    theta3 = _weighted_variance(mean_scalars, p)
    return GapComponents(a1, a2, a31, a32, b1, b2, b3, theta1, theta2, theta3,
                         tuple(gap_scalars), tuple(mean_scalars))


def sigma2_step_quadrature(nu_values: np.ndarray,
                           settings: QuadratureSettings = QuadratureSettings()) -> float:
    """Numerically integrate the bridge form for a step weight on the uniform
    n-cell grid: an independent cross-check of the exact cell sums."""
    nu_values = np.asarray(nu_values, dtype=float)
    n = nu_values.size
    grid = list(np.arange(1, n) / n)

    def nu_step(s: float) -> float:
        j = min(n, max(1, math.ceil(s * n)))
        return float(nu_values[j - 1])

    inner_settings = settings.tighter()

    def inner(s: float) -> float:
        return _quad(lambda t: nu_step(t) * (min(s, t) - s * t), 0.0, 1.0,
                     inner_settings, [*grid, s])

    return _quad(lambda s: nu_step(s) * inner(s), 0.0, 1.0, settings, grid)


def nested_index_oracle(dist, config,
                        settings: QuadratureSettings = QuadratureSettings()) -> float:
    """T = 1 - 2 P(h) / mu with P(h) by scalar quadrature along the law's
    own quantile (brentq for a mixture)."""
    kernels = _NestedKernels(dist, config, settings)
    return 1.0 - 2.0 * kernels.p_h / kernels.mu
