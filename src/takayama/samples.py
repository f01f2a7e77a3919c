"""Income samples, empirical distributions, and the run configuration.

All containers are immutable after construction (arrays are marked
read-only), so values can be shared freely across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError
from .quadrature import DEFAULT_QUADRATURE, QuadratureSettings


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class PovertyConfig:
    """The settings of one run, shared by its sample and population sides.

    strict_comparison selects "poor" = income < line; the default counts
    incomes equal to the line as poor.  One flag governs the index, the
    kernels, and the decomposition consistently.  quadrature sets the
    tolerance of every population functional (see population).
    """
    poverty_line: float
    confidence_level: float = 0.95
    strict_comparison: bool = False
    quadrature: QuadratureSettings = DEFAULT_QUADRATURE

    def __post_init__(self):
        if not 0 < self.poverty_line < math.inf:
            raise ValueError(
                f"poverty line must be positive and finite, got {self.poverty_line}")
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError(
                f"confidence level must lie in (0, 1), got {self.confidence_level}")

    def poor_mask(self, values: np.ndarray) -> np.ndarray:
        if self.strict_comparison:
            return values < self.poverty_line
        return values <= self.poverty_line


@dataclass(frozen=True, eq=False)
class IncomeSample:
    """Raw non-negative incomes with optional group labels and
    per-household adult-equivalence divisors."""
    values: np.ndarray
    group_labels: Optional[np.ndarray] = None
    equivalence_divisors: Optional[np.ndarray] = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("income values must be one-dimensional")
        if not np.isfinite(values).all():
            raise ValueError("incomes must be finite")
        if values.size and values.min() < 0:
            raise ValueError("incomes must be non-negative")
        object.__setattr__(self, "values", _readonly(values))

        if self.group_labels is not None:
            labels = np.asarray(self.group_labels, dtype=object)
            if labels.shape != values.shape:
                raise ValueError("group labels must match the number of incomes")
            object.__setattr__(self, "group_labels", _readonly(labels))

        if self.equivalence_divisors is not None:
            div = np.asarray(self.equivalence_divisors, dtype=float)
            if div.shape != values.shape:
                raise ValueError("equivalence divisors must match the number of incomes")
            if not np.isfinite(div).all():
                raise ValueError("equivalence divisors must be finite")
            if div.size and div.min() <= 0:
                raise ValueError("equivalence divisors must be positive")
            object.__setattr__(self, "equivalence_divisors", _readonly(div))

    @property
    def size(self) -> int:
        return int(self.values.size)

    def scaled_values(self) -> np.ndarray:
        """Adult-equivalent incomes: raw values divided by the divisors."""
        if self.equivalence_divisors is None:
            return self.values
        return self.values / self.equivalence_divisors


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Order statistics of a sample with its mean."""
    sorted_values: np.ndarray
    mean: float

    @property
    def size(self) -> int:
        return int(self.sorted_values.size)


def build_empirical(sample: IncomeSample) -> EmpiricalDistribution:
    """Sort the (equivalence-scaled) incomes and record their mean.

    Scaling happens here, before any statistic is computed.  Raises on an
    empty sample and on a zero mean, which would make every index formula
    divide by zero.
    """
    values = sample.scaled_values()
    if values.size == 0:
        raise ValueError("empty sample")
    ordered = np.sort(values)
    # Mean of the sorted array: permuting the input cannot change the result
    # even in the last ulp.
    mean = float(ordered.mean())
    if mean == 0.0:
        raise NumericalError("degenerate sample mean")
    return EmpiricalDistribution(_readonly(ordered), mean)


def standardize(values: np.ndarray) -> np.ndarray:
    """Center and scale by the sample mean and (ddof=1) standard deviation."""
    values = np.asarray(values, dtype=float)
    sd = values.std(ddof=1) if values.size > 1 else 0.0
    if sd == 0.0 or not math.isfinite(sd):
        raise NumericalError("cannot standardize: zero or non-finite standard deviation")
    return (values - values.mean()) / sd
