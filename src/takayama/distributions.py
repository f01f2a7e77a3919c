"""Analytic reference distributions with closed-form CDF/quantile/mean.

Shipped families: uniform, exponential, lognormal, Pareto, and finite
mixtures.  Every plain family exposes an increasing CDF together with
its exact inverse, so population functionals can be evaluated by
quadrature in quantile space without densities; a mixture keeps its
plain components, so those functionals never invert its CDF.  The
lognormal reads the package's numpy normal law (takayama.normal),
accurate in both tails, and a mixture's quantile bisects its CDF in
numpy, so the package's runtime is numpy-only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .normal import ndtr, ndtri


@dataclass(frozen=True, eq=False)
class AnalyticDistribution:
    """A distribution given by its CDF, exact quantile function, and mean.

    support is the closed interval carrying all mass (upper end may be
    inf).  second_moment is E[X^2] when known in closed form (inf when it
    diverges); population variance formulas fall back to quadrature when it
    is None.  components holds the (weight, plain law) parts of a finite
    mixture and is empty for a plain law.
    """
    cdf: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[np.ndarray], np.ndarray]
    mean: float
    identifier: str
    support: Tuple[float, float] = (0.0, math.inf)
    second_moment: Optional[float] = None
    components: Tuple[Tuple[float, "AnalyticDistribution"], ...] = ()

    def __post_init__(self):
        if not self.mean > 0:
            raise ValueError(f"distribution mean must be positive, got {self.mean}")

    @property
    def parts(self) -> Tuple[Tuple[float, "AnalyticDistribution"], ...]:
        """The (weight, plain law) parts; a plain law is its own one part."""
        return self.components or ((1.0, self),)


def uniform(a: float, b: float) -> AnalyticDistribution:
    if not 0 <= a < b:
        raise ValueError(f"uniform needs 0 <= a < b, got ({a}, {b})")
    width = b - a

    def cdf(x):
        return np.clip((np.asarray(x, dtype=float) - a) / width, 0.0, 1.0)

    def quantile(s):
        return a + np.asarray(s, dtype=float) * width

    return AnalyticDistribution(cdf, quantile, (a + b) / 2.0, f"uniform({a:g},{b:g})",
                                support=(a, b),
                                second_moment=(a * a + a * b + b * b) / 3.0)


def exponential(rate: float) -> AnalyticDistribution:
    if not rate > 0:
        raise ValueError(f"exponential rate must be positive, got {rate}")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0)

    def quantile(s):
        with np.errstate(divide="ignore"):  # Q(1) = inf
            return -np.log1p(-np.asarray(s, dtype=float)) / rate

    return AnalyticDistribution(cdf, quantile, 1.0 / rate, f"exponential({rate:g})",
                                support=(0.0, math.inf),
                                second_moment=2.0 / (rate * rate))


def lognormal(mu: float, sigma: float) -> AnalyticDistribution:
    if not sigma > 0:
        raise ValueError(f"lognormal sigma must be positive, got {sigma}")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 1e-300)) - mu) / sigma
        return np.where(x > 0, ndtr(z), 0.0)

    def quantile(s):
        return np.exp(mu + sigma * ndtri(s))

    return AnalyticDistribution(cdf, quantile, math.exp(mu + 0.5 * sigma * sigma),
                                f"lognormal({mu:g},{sigma:g})",
                                support=(0.0, math.inf),
                                second_moment=math.exp(2.0 * mu + 2.0 * sigma * sigma))


def pareto(scale: float, shape: float) -> AnalyticDistribution:
    """Pareto with lower endpoint `scale` and tail index `shape` (> 1 so the
    mean exists; the second moment is finite only for shape > 2, and is
    recorded as inf otherwise)."""
    if not scale > 0:
        raise ValueError(f"pareto scale must be positive, got {scale}")
    if not shape > 1:
        raise ValueError(f"pareto shape must exceed 1 for a finite mean, got {shape}")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= scale, 1.0 - (scale / np.maximum(x, scale)) ** shape, 0.0)

    def quantile(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):  # Q(1) = inf
            return scale * (1.0 - s) ** (-1.0 / shape)

    m2 = shape * scale * scale / (shape - 2.0) if shape > 2 else math.inf
    return AnalyticDistribution(cdf, quantile, shape * scale / (shape - 1.0),
                                f"pareto({scale:g},{shape:g})",
                                support=(scale, math.inf), second_moment=m2)


def mixture(components: Sequence[AnalyticDistribution],
            weights: Sequence[float]) -> AnalyticDistribution:
    """Finite mixture sum(p_i * F_i), flattened into its plain components.

    One component of weight 1 is returned as it is.  A mixture of mixtures
    keeps only the plain laws as its parts, so a study of it draws and
    groups by those.  E X^2 is inf when any component's is, and unknown
    (None) otherwise unless every component knows its own.

    The quantile is the left-continuous inverse inf{x : F(x) >= s}, found
    for all points at once by bisection on the CDF between the smallest and
    largest component quantile, to 1e-13 + 8.9e-16 |x|.  The population
    functionals never call it.
    """
    comps = tuple(components)
    w = np.asarray(weights, dtype=float)
    if len(comps) != w.size or len(comps) == 0:
        raise ValueError("components and weights must be non-empty and match")
    if w.min() <= 0:
        raise ValueError("mixture weights must be positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
    if len(comps) == 1:
        return comps[0]
    parts = tuple((float(p) * q, part) for p, comp in zip(w, comps) for q, part in comp.parts)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x, dtype=float)
        for p, comp in zip(w, comps):
            total += p * comp.cdf(x)
        return total

    def quantile(s):
        s = np.asarray(s, dtype=float)
        qs = np.array([part.quantile(s) for _, part in parts], dtype=float)
        lo, hi = qs.min(axis=0), qs.max(axis=0)
        # F < s below every Q_k(s) and F >= s from every Q_k(s) on, so
        # inf{x : F(x) >= s} lies in [lo, hi], and is lo where F(lo) >= s.
        hi = np.where(cdf(lo) >= s, lo, hi)
        while True:
            # False on a closed bracket, an infinite upper end and NaN.
            open_ = hi > lo + 1e-13 + 8.9e-16 * np.abs(hi)
            if not open_.any():
                return hi[()]
            mid = 0.5 * (lo + hi)
            below = cdf(mid) < s
            lo = np.where(open_ & below, mid, lo)
            hi = np.where(open_ & ~below, mid, hi)

    mean = float(np.dot(w, [c.mean for c in comps]))
    moments = [c.second_moment for c in comps]
    m2 = None
    if math.inf in moments:
        m2 = math.inf
    elif None not in moments:
        m2 = float(np.dot(w, moments))
    lo = min(c.support[0] for c in comps)
    hi = max(c.support[1] for c in comps)
    label = "mixture(" + ", ".join(f"{p:g}*{c.identifier}" for p, c in zip(w, comps)) + ")"
    return AnalyticDistribution(cdf, quantile, mean, label, support=(lo, hi),
                                second_moment=m2, components=parts)


def require_finite_second_moment(dist: AnalyticDistribution) -> None:
    """Refuse a law with E X^2 = inf, naming the part that makes it so: the
    index's limiting variance, and every interval built on it, needs a
    finite second moment."""
    if dist.second_moment == math.inf:
        name = next((law.identifier for _, law in dist.parts
                     if law.second_moment == math.inf), dist.identifier)
        raise ValueError(f"{name} has an infinite second moment; "
                         "the index variance needs E X^2 < inf")


_FAMILIES = {
    "uniform": (uniform, 2),
    "exponential": (exponential, 1),
    "lognormal": (lognormal, 2),
    "pareto": (pareto, 2),
}


def parse_distribution(spec: str) -> AnalyticDistribution:
    """Parse "family:arg1,arg2" specs, e.g. "uniform:0,1" or "exponential:1"."""
    name, _, argtext = spec.partition(":")
    name = name.strip().lower()
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown distribution family {name!r} (known: {known})")
    factory, arity = _FAMILIES[name]
    try:
        args = [float(tok) for tok in argtext.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad numeric arguments in distribution spec {spec!r}") from exc
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(args)} in {spec!r}")
    return factory(*args)


def parse_mixture(specs: Sequence[str], weights: Optional[str]) -> AnalyticDistribution:
    """The mixture of parse_distribution(spec) over specs, weighted by the
    comma-separated weights, or equally when weights is None or empty."""
    components = [parse_distribution(spec) for spec in specs]
    if weights:
        shares = [float(tok) for tok in weights.split(",")]
    else:
        shares = [1.0 / len(components)] * len(components)
    return mixture(components, shares)


__all__ = [
    "AnalyticDistribution", "uniform", "exponential", "lognormal", "pareto",
    "mixture", "parse_distribution", "parse_mixture", "require_finite_second_moment",
]
