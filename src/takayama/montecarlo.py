"""Simulation engine: two-stage mixture sampling, replicate studies,
a bootstrap variance oracle, and normality/coverage diagnostics.

Randomness contract: PCG64 generators (numpy default_rng).  Each replicate
gets an independent substream derived from the study seed and the
replicate index through SeedSequence spawn keys, and results are written
into index-addressed arrays, so a study is bit-identical for any number of
worker threads and any scheduling order.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .asymptotics import confidence_interval, sigma_plugin
from .decomposition import analytic_partition, decomposability_gap, gap_variance, partition
from .distributions import AnalyticDistribution, mixture, require_finite_second_moment
from .errors import NumericalError
from .indices import takayama_empirical, takayama_population
from .normal import kolmogorov_critical_value, normal_cdf
from .quadrature import DEFAULT_QUADRATURE, QuadratureSettings
from .samples import IncomeSample, PovertyConfig, build_empirical, standardize

Model = Union["MixtureModel", AnalyticDistribution]

TARGET_TAKAYAMA = "takayama"
TARGET_GAP = "gap"


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Components with drawing probabilities; group labels record indices."""
    components: Tuple[AnalyticDistribution, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.components) != len(self.weights) or not self.components:
            raise ValueError("components and weights must be non-empty and match")
        if min(self.weights) <= 0:
            raise ValueError("mixture weights must be positive")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {math.fsum(self.weights)!r}")

    def to_distribution(self) -> AnalyticDistribution:
        if len(self.components) == 1:
            return self.components[0]
        return mixture(self.components, self.weights)

    def to_partition(self):
        return analytic_partition(
            [(str(i), comp, w) for i, (comp, w) in
             enumerate(zip(self.components, self.weights))])


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(index,)))


def draw_mixture_sample(model: MixtureModel, n: int,
                        seed: Union[int, np.random.Generator]) -> IncomeSample:
    """n two-stage draws: pick a component by weight, then invert its CDF.

    Labels record the drawn component index as a string.  Deterministic for
    a given seed: one uniform vector selects components, a second feeds the
    quantile functions.
    """
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cum = np.cumsum(model.weights)
    idx = np.searchsorted(cum, rng.random(n), side="right")
    np.clip(idx, 0, len(model.components) - 1, out=idx)
    u = rng.random(n)
    values = np.empty(n, dtype=float)
    for i, comp in enumerate(model.components):
        mask = idx == i
        if mask.any():
            values[mask] = comp.quantile(u[mask])
    labels = np.array([str(i) for i in range(len(model.components))], dtype=object)[idx]
    return IncomeSample(values, group_labels=labels)


@dataclass(frozen=True, eq=False)
class ReplicateRecords:
    """Per-replicate outputs of a study, index-aligned arrays."""
    target: str
    truth: float
    values: np.ndarray       # statistic (index or gap) per replicate
    variances: np.ndarray    # plug-in variance per replicate (nan if skipped)
    ci_hits: np.ndarray      # True when the CI covered the population truth
    degenerate: np.ndarray   # True when the replicate was flagged, not dropped

    @property
    def replicate_count(self) -> int:
        return int(self.values.size)

    def scaled_deviations(self, sample_size: int) -> np.ndarray:
        """sqrt(n) (statistic - truth) over the clean replicates."""
        ok = ~self.degenerate
        return math.sqrt(sample_size) * (self.values[ok] - self.truth)

    def coverage(self) -> float:
        ok = ~self.degenerate
        return float(self.ci_hits[ok].mean())


@dataclass(frozen=True, eq=False)
class ReplicateStudy:
    """A reproducible study: model, sizes, seed, and (when run) records."""
    model: Model
    sample_size: int
    replicate_count: int
    seed: int
    config: PovertyConfig
    records: Optional[ReplicateRecords] = None

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if self.replicate_count < 1:
            raise ValueError("replicate_count must be at least 1")
        # Coverage of an interval is only defined when the variance is finite.
        for component in _as_mixture(self.model).components:
            require_finite_second_moment(component)


def _as_mixture(model: Model) -> MixtureModel:
    if isinstance(model, MixtureModel):
        return model
    return MixtureModel((model,), (1.0,))


def population_truth(model: Model, config: PovertyConfig, target: str,
                     quad: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Population value of the study statistic (index or gap)."""
    mix = _as_mixture(model)
    if target == TARGET_TAKAYAMA:
        return takayama_population(mix.to_distribution(), config, quad).value
    if target == TARGET_GAP:
        return decomposability_gap(mix.to_partition(), config, quad).gap
    raise ValueError(f"unknown study target {target!r}")


def run_replicates(study: ReplicateStudy, target: str = TARGET_TAKAYAMA,
                   threads: int = 1, compute_variance: bool = True,
                   quad: QuadratureSettings = DEFAULT_QUADRATURE) -> ReplicateStudy:
    """Run the study and attach records.

    Degenerate replicates (zero sample mean) are flagged and kept so the
    replicate count stays fixed.  With compute_variance the per-replicate
    plug-in variance and a CI-hit flag against the population truth are
    recorded; coverage then reads straight off the records.
    """
    if target not in (TARGET_TAKAYAMA, TARGET_GAP):
        raise ValueError(f"unknown study target {target!r}")
    mix = _as_mixture(study.model)
    if target == TARGET_GAP and len(mix.components) < 2:
        raise ValueError("gap studies need a mixture with at least two components")
    truth = population_truth(mix, study.config, target, quad)
    n = study.sample_size
    r = study.replicate_count
    config = study.config

    values = np.full(r, np.nan)
    variances = np.full(r, np.nan)
    ci_hits = np.zeros(r, dtype=bool)
    degenerate = np.zeros(r, dtype=bool)

    def one(rep: int) -> None:
        rng = _replicate_rng(study.seed, rep)
        sample = draw_mixture_sample(mix, n, rng)
        try:
            if target == TARGET_TAKAYAMA:
                dist = build_empirical(sample)
                values[rep] = takayama_empirical(dist, config).value
                if compute_variance:
                    variances[rep] = sigma_plugin(dist, config).total
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

    if threads <= 1:
        for rep in range(r):
            one(rep)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, range(r)))

    records = ReplicateRecords(target, truth, values, variances, ci_hits, degenerate)
    return replace(study, records=records)


def bootstrap_variance(sample: Union[IncomeSample, Sequence[float], np.ndarray],
                       config: PovertyConfig, resamples: int,
                       seed: int) -> float:
    """n times the variance of the index over with-replacement resamples.

    An estimator of the same limiting variance as the plug-in formula, kept
    deliberately independent of it (pure resampling; no kernels).
    """
    if resamples < 100:
        raise ValueError(f"at least 100 bootstrap resamples required, got {resamples}")
    if isinstance(sample, IncomeSample):
        values = sample.scaled_values()
    else:
        values = np.asarray(sample, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("empty sample")
    rng = np.random.default_rng(seed)
    stats = np.empty(resamples)
    for b in range(resamples):
        draw = values[rng.integers(0, n, n)]
        stats[b] = takayama_empirical(build_empirical(IncomeSample(draw)), config).value
    return n * float(stats.var(ddof=1))


@dataclass(frozen=True)
class KsNormalityResult:
    statistic: float
    passed: bool
    critical_value: float
    alpha: float
    size: int


def ks_normality(values: Sequence[float] | np.ndarray,
                 alpha: float = 0.01) -> KsNormalityResult:
    """One-sample Kolmogorov-Smirnov test of standardized values against the
    standard normal, with the asymptotic critical value.

    Values are standardized by their own mean and standard deviation first;
    a zero standard deviation fails the test outright.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 100:
        raise ValueError(f"at least 100 values required, got {n}")
    critical = kolmogorov_critical_value(alpha, n)
    try:
        z = np.sort(standardize(arr))
    except NumericalError:
        return KsNormalityResult(math.inf, False, critical, alpha, n)
    phi = np.array([normal_cdf(v) for v in z])
    i = np.arange(1, n + 1)
    statistic = float(np.max(np.maximum(i / n - phi, phi - (i - 1) / n)))
    return KsNormalityResult(statistic, statistic <= critical, critical, alpha, n)
