"""Adaptive quadrature with an explicit tolerance contract.

Thin wrapper over scipy's QUADPACK: callers state an absolute tolerance and
a subdivision cap; failure to converge raises instead of returning a noisy
value.  All population-level integrals in this package go through here.
scipy is imported on the first integral, not with this module, so the
empirical paths (and the CLI's index and decompose) never load it.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import QuadratureError


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances for adaptive quadrature.

    abs_tol: absolute tolerance requested from the integrator.
    rel_tol: relative tolerance (0 disables the relative criterion).
    max_subdivisions: cap on adaptive panels per integral.
    """
    abs_tol: float = 1e-8
    rel_tol: float = 0.0
    max_subdivisions: int = 400

    def __post_init__(self):
        if self.abs_tol <= 0 and self.rel_tol <= 0:
            raise ValueError("at least one of abs_tol/rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def tighter(self, factor: float = 0.1) -> "QuadratureSettings":
        """Settings for inner integrals of nested quadratures."""
        return QuadratureSettings(self.abs_tol * factor, self.rel_tol * factor,
                                  self.max_subdivisions)


DEFAULT_QUADRATURE = QuadratureSettings()


@functools.cache
def _quadpack():
    """scipy's quad and IntegrationWarning, imported once, on first use."""
    from scipy.integrate import IntegrationWarning, quad
    return quad, IntegrationWarning


def integrate(fn: Callable[[float], float], lo: float, hi: float,
              settings: QuadratureSettings = DEFAULT_QUADRATURE,
              breakpoints: Iterable[float] = ()) -> float:
    """Integrate fn over [lo, hi] to the settings' tolerance.

    breakpoints lists interior points where the integrand has kinks or
    jumps; they are forwarded to the adaptive subdivision.  Raises
    QuadratureError when the error estimate exceeds the tolerance.
    """
    if hi <= lo:
        return 0.0
    pts = sorted(p for p in breakpoints if lo < p < hi)
    quad, integration_warning = _quadpack()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integration_warning)
        # QUADPACK rejects epsabs=0 when epsrel is tiny; keep a floor.
        value, abserr = quad(fn, lo, hi,
                             epsabs=max(settings.abs_tol, 1e-14), epsrel=settings.rel_tol,
                             limit=settings.max_subdivisions,
                             points=pts if pts else None)
    tol = max(settings.abs_tol, settings.rel_tol * abs(value))
    if abserr > tol:
        raise QuadratureError(
            f"quadrature did not converge: achieved {abserr:.3e}, requested {tol:.3e}")
    return value
