"""Adaptive quadrature with an explicit tolerance contract.

One vectorised Gauss-Kronrod rule, G10/K21.  An integrand maps an array of
nodes to values of the same shape, or with extra leading axes for several
integrands on one subdivision.  Each round evaluates it once, on the 21
nodes of every new panel; the rule stops when the summed |K21 - G10| of all
panels meets the tolerance (one global budget), and otherwise halves the
panels holding most of the error.  Failure to converge within the panel
cap raises QuadratureError instead of returning a noisy value.  All
population-level integrals in this package go through here, on numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import QuadratureError


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances for adaptive quadrature.

    abs_tol: absolute tolerance requested from the integrator, positive
    and finite.
    """
    abs_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:
            raise ValueError(
                f"quadrature tolerance must be positive and finite, got {self.abs_tol}")

    def tighter(self) -> "QuadratureSettings":
        """Settings a tenth as tolerant, for integrals that feed other
        integrands."""
        return QuadratureSettings(self.abs_tol * 0.1)


# Cap on adaptive panels per integral.
MAX_SUBDIVISIONS = 400


DEFAULT_QUADRATURE = QuadratureSettings()

# Kronrod nodes in (0, 1) with their K21 and, at the odd positions, their
# G10 weights; the rule is symmetric about the centre node 0 (QUADPACK qk21).
_HALF_NODES = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
               0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
               0.2943928627014602, 0.14887433898163122)
_HALF_KRONROD = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                 0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                 0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                 0.14773910490133849)
_HALF_GAUSS = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
               0.26926671930999635, 0.29552422471475287)
_NODES = np.array([*(-x for x in _HALF_NODES), 0.0, *_HALF_NODES[::-1]])
_KRONROD = np.array([*_HALF_KRONROD, 0.1494455540029169, *_HALF_KRONROD[::-1]])
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _HALF_GAUSS
_GAUSS[11:20:2] = _HALF_GAUSS[::-1]


def _rule(fn: Callable, lo: np.ndarray, hi: np.ndarray):
    """K21 values and |K21 - G10| error estimates of fn on panels [lo, hi],
    each of shape (..., panels)."""
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, np.newaxis] + half[:, np.newaxis] * _NODES
    values = np.asarray(fn(nodes), dtype=float)
    values = np.broadcast_to(values, np.broadcast_shapes(values.shape, nodes.shape))
    if not np.isfinite(values).all():
        raise QuadratureError("quadrature integrand is not finite on [{:g}, {:g}]"
                              .format(lo.min(), hi.max()))
    kronrod = (values @ _KRONROD) * half
    return kronrod, np.abs(kronrod - (values @ _GAUSS) * half)


def _adaptive(fn: Callable, edges: np.ndarray, owner: np.ndarray, integrals: int,
              settings: QuadratureSettings) -> np.ndarray:
    """Integrals of fn over the panels between edges, summed per owner:
    shape (..., integrals).  Stops when every leading entry's summed error
    meets abs_tol; splits at most MAX_SUBDIVISIONS panels per owner."""
    lo, hi = edges[:-1], edges[1:]
    tol = settings.abs_tol
    values, errors = _rule(fn, lo, hi)
    while True:
        totals = np.zeros(values.shape[:-1] + (integrals,))
        np.add.at(totals, (..., owner), values)
        achieved = errors.sum(axis=-1)
        if np.all(achieved <= tol):
            return totals
        # Halve the panels with the largest share of the budget until the
        # rest holds at most half of it.
        share = (errors / tol).reshape(-1, lo.size).max(axis=0)
        order = np.argsort(share)[::-1]
        rest = np.cumsum(share[order][::-1])[::-1]
        split = order[:max(1, int(np.count_nonzero(rest > 0.5)))]
        if np.bincount(np.append(owner, owner[split])).max() > MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"quadrature did not converge within {MAX_SUBDIVISIONS} panels: "
                f"achieved {np.max(achieved):.3e}, requested {tol:.3e}")
        mid = 0.5 * (lo[split] + hi[split])
        new_values, new_errors = _rule(fn, np.append(lo[split], mid), np.append(mid, hi[split]))
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        owner = np.concatenate([owner[keep], owner[split], owner[split]])
        values = np.concatenate([values[..., keep], new_values], axis=-1)
        errors = np.concatenate([errors[..., keep], new_errors], axis=-1)


def integrate(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              settings: QuadratureSettings = DEFAULT_QUADRATURE,
              breakpoints: Iterable[float] = ()):
    """Integrate fn over the finite interval [lo, hi] to the settings'
    tolerance.

    fn maps an array of nodes to values of the same shape (a scalar
    result broadcasts); extra leading axes integrate several functions on
    one subdivision and return an array over them.  breakpoints lists
    interior points where the integrand has kinks or jumps; the first
    panels end there.  Raises QuadratureError when the summed error
    estimate cannot meet the tolerance within MAX_SUBDIVISIONS panels.
    """
    if hi <= lo:
        return 0.0
    pts = sorted(p for p in breakpoints if lo < p < hi)
    edges = np.array([lo, *pts, hi], dtype=float)
    totals = _adaptive(fn, edges, np.zeros(edges.size - 1, dtype=np.intp), 1, settings)
    return float(totals[0]) if totals.ndim == 1 else totals[..., 0]


def integrate_pieces(fn: Callable[[np.ndarray], np.ndarray], edges: np.ndarray,
                     settings: QuadratureSettings = DEFAULT_QUADRATURE) -> np.ndarray:
    """Integrals of fn over [edges[k], edges[k + 1]] for ascending edges.

    The error budget is shared by all pieces, so every partial sum of the
    result (an antiderivative at the edges) meets the tolerance; each
    piece may be split into at most MAX_SUBDIVISIONS panels.
    """
    edges = np.asarray(edges, dtype=float)
    return _adaptive(fn, edges, np.arange(edges.size - 1), edges.size - 1, settings)
