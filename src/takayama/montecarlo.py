"""Simulation engine: two-stage mixture sampling, replicate studies,
a bootstrap variance oracle, and normality/coverage diagnostics.

A study's model is one AnalyticDistribution.  Its (weight, plain law)
parts (AnalyticDistribution.parts; a plain law is its own one part) are
what a draw picks from, and they label the groups of a gap study.

Randomness contract: PCG64 generators (numpy default_rng).  Each replicate
gets an independent substream derived from the study seed and the
replicate index through SeedSequence spawn keys, and results are written
into index-addressed arrays, so a study is bit-identical for any chunking
and any `threads` value.

Replicates are drawn and scored in chunks of at most
max(1, CHUNK_ELEMENTS // n) rows.  Each row still draws from its own
substream and is sorted and checked by build_empirical; the chunk's sorted
rows then go through the row-wise index (takayama_rows) and, when the
variance is asked for, the row-wise plug-in core (plugin_rows), one
vectorised call each.  The cap keeps memory flat in the replicate count.
`threads` is still accepted but has no effect: a thread pool over
replicates ran slower than one thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .asymptotics import confidence_interval, plugin_rows
from .decomposition import analytic_partition, decomposability_gap, gap_variance, partition
from .distributions import AnalyticDistribution, require_finite_second_moment
from .errors import NumericalError
from .indices import takayama_population, takayama_rows
from .normal import kolmogorov_critical_value, ndtr
from .samples import IncomeSample, PovertyConfig, build_empirical, standardize

TARGET_TAKAYAMA = "takayama"
TARGET_GAP = "gap"

# Elements per chunk of replicate or bootstrap rows.  2**17 raised the
# replicate study's peak RSS by 16%; 2**14 kept it flat.
CHUNK_ELEMENTS = 2 ** 14


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(index,)))


def draw_mixture_sample(dist: AnalyticDistribution, n: int,
                        seed: Union[int, np.random.Generator]) -> IncomeSample:
    """n two-stage draws: pick a part of dist by weight, then invert its CDF.

    Labels record the drawn part's index as a string.  Deterministic for
    a given seed: one uniform vector selects parts, a second feeds their
    quantile functions.
    """
    if n < 1:
        raise ValueError(f"sample size must be at least 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    values, picks = _draw_rows(dist, n, [rng])
    return IncomeSample(values[0], group_labels=_part_labels(dist)[picks[0]])


def _part_labels(dist: AnalyticDistribution) -> np.ndarray:
    return np.array([str(i) for i in range(len(dist.parts))], dtype=object)


def _draw_rows(dist: AnalyticDistribution, n: int,
               rngs: Sequence[np.random.Generator]) -> Tuple[np.ndarray, np.ndarray]:
    """Row i holds n two-stage draws from rngs[i]: random(n) picks the
    parts of dist, a second random(n) feeds their quantile functions.

    Returns the (rows, n) values and part indices.  The pick equals
    searchsorted(cumulative weights, u, side="right") clipped to the last
    part, and each part's quantile runs once on the whole chunk.
    """
    weights, laws = zip(*dist.parts)
    pick_u = np.empty((len(rngs), n))
    quantile_u = np.empty((len(rngs), n))
    for i, rng in enumerate(rngs):
        rng.random(n, out=pick_u[i])
        rng.random(n, out=quantile_u[i])
    picks = np.zeros(pick_u.shape, dtype=np.intp)
    for edge in np.cumsum(weights)[:-1]:
        picks += pick_u >= edge
    values = np.empty(pick_u.shape)
    for i, law in enumerate(laws):
        # Positions rather than a boolean mask: a mask gather and scatter
        # mispredict on every random pick and cost several times more.
        at = np.flatnonzero(picks == i)
        if at.size:
            values.flat[at] = law.quantile(quantile_u.take(at))
    return values, picks


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
    """A reproducible study: model, sizes and seed."""
    model: AnalyticDistribution
    sample_size: int
    replicate_count: int
    seed: int
    config: PovertyConfig

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if self.replicate_count < 1:
            raise ValueError("replicate_count must be at least 1")
        # Coverage of an interval is only defined when the variance is finite.
        require_finite_second_moment(self.model)


def population_truth(dist: AnalyticDistribution, config: PovertyConfig, target: str) -> float:
    """Population value of the study statistic: the index of dist, or the
    gap over its parts as groups."""
    if target == TARGET_TAKAYAMA:
        return takayama_population(dist, config).value
    if target == TARGET_GAP:
        part = analytic_partition([(str(i), law, w) for i, (w, law) in enumerate(dist.parts)])
        return decomposability_gap(part, config).gap
    raise ValueError(f"unknown study target {target!r}")


def run_replicates(study: ReplicateStudy, target: str = TARGET_TAKAYAMA,
                   threads: int = 1, compute_variance: bool = True) -> ReplicateRecords:
    """Run the study and return its records.

    Degenerate replicates (zero sample mean) are flagged and kept so the
    replicate count stays fixed.  The population truth is integrated to
    study.config.quadrature.  With compute_variance the per-replicate
    plug-in variance and a CI-hit flag against the truth are recorded;
    coverage then reads straight off the records.  A gap study needs a
    model of at least two parts.  `threads` is accepted for
    compatibility and has no effect (see the module notes).
    """
    if target not in (TARGET_TAKAYAMA, TARGET_GAP):
        raise ValueError(f"unknown study target {target!r}")
    model = study.model
    if target == TARGET_GAP and len(model.parts) < 2:
        raise ValueError("gap studies need a mixture with at least two components")
    truth = population_truth(model, study.config, target)
    n = study.sample_size
    r = study.replicate_count
    config = study.config

    values = np.full(r, np.nan)
    variances = np.full(r, np.nan)
    degenerate = np.zeros(r, dtype=bool)
    labels = _part_labels(model)
    rows = max(1, CHUNK_ELEMENTS // n)
    for start in range(0, r, rows):
        stop = min(start + rows, r)
        drawn, picks = _draw_rows(model, n, [_replicate_rng(study.seed, rep)
                                             for rep in range(start, stop)])
        if target == TARGET_TAKAYAMA:
            scored = _score_index_rows(drawn, config, compute_variance)
        else:
            scored = _score_gap_rows(drawn, labels[picks], config, compute_variance)
        values[start:stop], variances[start:stop], degenerate[start:stop] = scored

    ci_hits = np.zeros(r, dtype=bool)
    if compute_variance:
        # One interval per replicate; NaN (degenerate) rows contain nothing.
        # No variance is negative: the plug-in total is a mean square, and
        # theta1^2 and theta2^2 are weighted variances.
        intervals = confidence_interval(values, variances, n, config.confidence_level)
        ci_hits = intervals.contains(truth) & ~degenerate
    return ReplicateRecords(target, truth, values, variances, ci_hits, degenerate)


def _score_index_rows(drawn: np.ndarray, config: PovertyConfig, compute_variance: bool):
    """Index and plug-in variance of each drawn row, as (values, variances,
    degenerate): every row is sorted on its own, then all go through one
    takayama_rows call and, with compute_variance, one plugin_rows call."""
    values = np.full(len(drawn), np.nan)
    variances = np.full(len(drawn), np.nan)
    degenerate = np.zeros(len(drawn), dtype=bool)
    kept, sorted_rows, means = [], [], []
    for i, row in enumerate(drawn):
        try:
            dist = build_empirical(IncomeSample(row))
        except NumericalError:
            degenerate[i] = True
            continue
        kept.append(i)
        sorted_rows.append(dist.sorted_values)
        means.append(dist.mean)
    if kept:
        sorted_rows, means = np.stack(sorted_rows), np.array(means)
        values[kept] = takayama_rows(sorted_rows, means, config)
        if compute_variance:
            variances[kept] = plugin_rows(sorted_rows, means, config).total
    return values, variances, degenerate


def _score_gap_rows(drawn: np.ndarray, labels: np.ndarray, config: PovertyConfig,
                    compute_variance: bool):
    """Decomposability gap and its variance of each drawn row, one row at a
    time, as (values, variances, degenerate)."""
    values = np.full(len(drawn), np.nan)
    variances = np.full(len(drawn), np.nan)
    degenerate = np.zeros(len(drawn), dtype=bool)
    for i, (row, row_labels) in enumerate(zip(drawn, labels)):
        try:
            part = partition(IncomeSample(row, group_labels=row_labels))
            values[i] = decomposability_gap(part, config).gap
            if compute_variance:
                variances[i] = gap_variance(part, config).gap_centered_total
        except NumericalError:
            degenerate[i] = True
    return values, variances, degenerate


def bootstrap_variance(sample: Union[IncomeSample, Sequence[float], np.ndarray],
                       config: PovertyConfig, resamples: int,
                       seed: int) -> float:
    """n times the variance of the index over with-replacement resamples.

    An estimator of the same limiting variance as the plug-in formula, kept
    deliberately independent of it (pure resampling; no kernels).  Each
    resample is one rng.integers(0, n, n) draw, in order; chunks of
    resamples are sorted and scored by the row-wise index.
    """
    if resamples < 100:
        raise ValueError(f"at least 100 bootstrap resamples required, got {resamples}")
    if isinstance(sample, IncomeSample):
        values = sample.scaled_values()
    else:
        values = IncomeSample(np.asarray(sample, dtype=float)).values
    n = values.size
    if n == 0:
        raise ValueError("empty sample")
    rng = np.random.default_rng(seed)
    stats = np.empty(resamples)
    rows = max(1, CHUNK_ELEMENTS // n)
    for start in range(0, resamples, rows):
        count = min(rows, resamples - start)
        draws = np.sort(values[np.stack([rng.integers(0, n, n) for _ in range(count)])],
                        axis=1)
        means = draws.mean(axis=1)
        if not means.all():
            raise NumericalError("degenerate sample mean")
        stats[start:start + count] = takayama_rows(draws, means, config)
    return n * float(stats.var(ddof=1))


# Level of the normality test.
KS_ALPHA = 0.01


@dataclass(frozen=True)
class KsNormalityResult:
    statistic: float
    passed: bool
    critical_value: float


def ks_normality(values: Sequence[float] | np.ndarray) -> KsNormalityResult:
    """One-sample Kolmogorov-Smirnov test of standardized values against the
    standard normal at level KS_ALPHA, with the asymptotic critical value.

    Values are standardized by their own mean and standard deviation first;
    a zero standard deviation fails the test outright.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    if n < 100:
        raise ValueError(f"at least 100 values required, got {n}")
    critical = kolmogorov_critical_value(KS_ALPHA, n)
    try:
        z = np.sort(standardize(arr))
    except NumericalError:
        return KsNormalityResult(math.inf, False, critical)
    phi = ndtr(z)
    i = np.arange(1, n + 1)
    statistic = float(np.max(np.maximum(i / n - phi, phi - (i - 1) / n)))
    return KsNormalityResult(statistic, statistic <= critical, critical)
