import math
import tracemalloc

import numpy as np
import pytest

from takayama import (AnalyticDistribution, IncomeSample, PovertyConfig,
                      ReplicateStudy, build_empirical, exponential, ks_normality,
                      lognormal, mixture, population_truth, run_replicates,
                      sigma_plugin, takayama_empirical, takayama_rows, uniform)
from takayama import asymptotics, montecarlo
from takayama.asymptotics import influence_rows, plugin_rows
from takayama.montecarlo import CHUNK_ELEMENTS, _draw_rows, _replicate_rng

from _oracles import (bootstrap_variance_loop_oracle, cell_sum_sigma_oracle,
                      draw_mixture_sample_oracle, influence_sigma_oracle,
                      run_replicates_loop_oracle, takayama_empirical_oracle)

CFG1 = PovertyConfig(1.0)


def _heaped_uniform() -> AnalyticDistribution:
    """uniform(0, 2) rounded down to a 0.25 grid: eight equally likely
    values 0, 0.25, ..., 1.75, so every sample is full of ties."""
    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, np.clip((np.floor(4.0 * x) + 1.0) / 8.0, 0.0, 1.0), 0.0)

    def quantile(s):
        return np.floor(8.0 * np.asarray(s, dtype=float)) / 4.0

    return AnalyticDistribution(cdf, quantile, 0.875, "heaped-uniform(0,2)",
                                support=(0.0, 1.75), second_moment=140.0 / 128.0)


def _zero_inflated() -> AnalyticDistribution:
    """Zero with probability 0.7, else uniform(1, 2): samples of a few
    observations are often all zero, so their mean is zero."""
    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, 0.7 + 0.3 * np.clip(x - 1.0, 0.0, 1.0), 0.0)

    def quantile(s):
        s = np.asarray(s, dtype=float)
        return np.where(s <= 0.7, 0.0, 1.0 + (s - 0.7) / 0.3)

    return AnalyticDistribution(cdf, quantile, 0.45, "zero-inflated",
                                support=(0.0, 2.0), second_moment=0.3 * 7.0 / 3.0)


def _assert_close_or_both_nan(got, want, rel):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.allclose(got[ok], want[ok], rtol=rel, atol=0.0)


def test_single_component_labels_identical():
    sample = draw_mixture_sample_oracle(uniform(0.0, 1.0), 50, np.random.default_rng(1))
    assert set(sample.group_labels.tolist()) == {"0"}


def test_component_frequency_concentrates():
    model = mixture((uniform(0.0, 1.0), exponential(1.0)), (0.5, 0.5))
    sample = draw_mixture_sample_oracle(model, 100_000, np.random.default_rng(2))
    freq = float(np.mean(sample.group_labels == "0"))
    assert abs(freq - 0.5) < 0.01


def test_pooled_step_cdf_close_to_mixture_cdf():
    mix = mixture((uniform(0.0, 1.0), exponential(1.0)), (0.4, 0.6))
    sample = draw_mixture_sample_oracle(mix, 100_000, np.random.default_rng(3))
    dist = build_empirical(sample)
    grid = np.linspace(0.01, 5.0, 400)
    ks_distance = float(np.max(np.abs(
        np.searchsorted(dist.sorted_values, grid, side="right") / dist.size
        - np.asarray(mix.cdf(grid)))))
    assert ks_distance < 0.01


def test_draw_is_deterministic_for_seed():
    model = mixture((uniform(0.0, 1.0), exponential(1.0)), (0.5, 0.5))
    a = draw_mixture_sample_oracle(model, 1000, np.random.default_rng(7))
    b = draw_mixture_sample_oracle(model, 1000, np.random.default_rng(7))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.group_labels, b.group_labels)
    c = draw_mixture_sample_oracle(model, 1000, np.random.default_rng(8))
    assert not np.array_equal(a.values, c.values)


def test_mixture_model_validation():
    with pytest.raises(ValueError):
        mixture((uniform(0.0, 1.0),), (0.7,))
    with pytest.raises(ValueError):
        mixture((uniform(0.0, 1.0), exponential(1.0)), (1.2, -0.2))


def test_run_replicates_smoke_single():
    study = ReplicateStudy(uniform(0.0, 1.0), sample_size=50, replicate_count=1,
                           seed=5, config=CFG1)
    records = run_replicates(study)
    assert records.values.size == 1
    assert math.isfinite(records.values[0])
    assert not records.degenerate[0]


def test_run_replicates_threads_bit_identical():
    study = ReplicateStudy(uniform(0.0, 1.0), sample_size=300, replicate_count=40,
                           seed=11, config=CFG1)
    serial = run_replicates(study, threads=1)
    parallel = run_replicates(study, threads=4)
    assert np.array_equal(serial.values, parallel.values)
    assert np.array_equal(serial.variances, parallel.variances)
    assert np.array_equal(serial.ci_hits, parallel.ci_hits)


def test_run_replicates_moments_track_theory():
    study = ReplicateStudy(uniform(0.0, 1.0), sample_size=500, replicate_count=300,
                           seed=13, config=CFG1)
    records = run_replicates(study)
    assert records.truth == pytest.approx(1 / 3, abs=1e-8)
    scaled = records.scaled_deviations(500)
    assert scaled.var(ddof=1) == pytest.approx(8 / 135, rel=0.25)
    assert 0.85 <= records.coverage() <= 1.0


def test_replicate_variance_matches_analytic_total():
    study = ReplicateStudy(uniform(0.0, 1.0), sample_size=2000,
                           replicate_count=1000, seed=31, config=CFG1)
    records = run_replicates(study, threads=2, compute_variance=False)
    scaled = records.scaled_deviations(2000)
    from takayama import sigma_analytic
    analytic_total = sigma_analytic(uniform(0.0, 1.0), CFG1).total
    assert scaled.var(ddof=1) == pytest.approx(analytic_total, rel=0.10)


def test_gap_mean_converges_to_population_gap():
    model = mixture((exponential(1.0), exponential(0.5)), (0.5, 0.5))
    truth = population_truth(model, CFG1, "gap")
    errors = {}
    for n in (500, 5000):
        study = ReplicateStudy(model, sample_size=n, replicate_count=200,
                               seed=37, config=CFG1)
        records = run_replicates(study, target="gap", threads=2,
                                 compute_variance=False)
        errors[n] = abs(float(np.nanmean(records.values)) - truth)
    assert errors[5000] < errors[500]


def test_gap_study_needs_mixture():
    study = ReplicateStudy(uniform(0.0, 1.0), sample_size=100, replicate_count=2,
                           seed=1, config=CFG1)
    with pytest.raises(ValueError):
        run_replicates(study, target="gap")
    with pytest.raises(ValueError):
        run_replicates(study, target="nonsense")


def test_gap_study_records_gap_statistics():
    model = mixture((exponential(1.0), exponential(0.5)), (0.5, 0.5))
    study = ReplicateStudy(model, sample_size=400, replicate_count=20,
                           seed=21, config=CFG1)
    records = run_replicates(study, target="gap", compute_variance=False)
    truth = population_truth(model, CFG1, "gap")
    assert records.truth == pytest.approx(truth)
    assert np.all(np.isnan(records.variances))
    assert np.isfinite(records.values).all()


def test_population_truth_unknown_target():
    with pytest.raises(ValueError):
        population_truth(uniform(0.0, 1.0), CFG1, "mean")


def test_run_replicates_unknown_target():
    model = mixture([uniform(0.0, 1.0), exponential(1.0)], [0.5, 0.5])
    study = ReplicateStudy(model, sample_size=50, replicate_count=2, seed=1, config=CFG1)
    with pytest.raises(ValueError, match="unknown study target 'mean'"):
        run_replicates(study, target="mean")


def test_bootstrap_constant_nonpoor_sample_is_zero():
    values = [3.0] * 200
    assert bootstrap_variance_loop_oracle(values, CFG1, 150, seed=3) == \
        pytest.approx(0.0, abs=1e-20)


def test_bootstrap_stability_across_resample_counts(rng):
    values = rng.random(2000)
    small = bootstrap_variance_loop_oracle(values, CFG1, 100, seed=5)
    large = bootstrap_variance_loop_oracle(values, CFG1, 1000, seed=5)
    assert small == pytest.approx(large, rel=0.25)


def test_bootstrap_tracks_plugin(rng):
    values = rng.random(2000)
    boot = bootstrap_variance_loop_oracle(values, CFG1, 500, seed=9)
    plug = sigma_plugin(build_empirical(IncomeSample(values)), CFG1).total
    assert boot == pytest.approx(plug, rel=0.15)


def test_ks_normality_accepts_gaussian(rng):
    result = ks_normality(rng.standard_normal(10_000))
    assert result.passed
    assert result.statistic < result.critical_value


def test_ks_normality_rejects_uniform_shape(rng):
    result = ks_normality(rng.random(10_000))
    assert not result.passed


def test_ks_normality_degenerate_constant():
    result = ks_normality(np.ones(500))
    assert result.passed is False
    assert math.isnan(result.statistic)


def test_ks_normality_needs_enough_values():
    with pytest.raises(ValueError):
        ks_normality(np.zeros(99))


@pytest.mark.parametrize("components,weights,n", [
    ((exponential(1.0),), (1.0,), 333),
    ((exponential(1.0), lognormal(0.0, 0.8)), (0.5, 0.5), 501),
    ((uniform(0.0, 1.0), exponential(1.0), exponential(0.5), lognormal(0.0, 0.8)),
     (0.1, 0.2, 0.3, 0.4), 777),
], ids=["K1", "K2", "K4"])
def test_chunk_draw_rows_equal_one_row_draws(components, weights, n):
    model = mixture(components, weights)
    values, picks = _draw_rows(model, n, [_replicate_rng(17, rep) for rep in range(6)])
    for rep in range(6):
        old = draw_mixture_sample_oracle(model, n, _replicate_rng(17, rep))
        assert np.array_equal(values[rep], old.values)
        assert np.array_equal(picks[rep].astype(str).astype(object), old.group_labels)


def _ties_chunk():
    # Rows of the heaped law and of a continuous law in one chunk: rows
    # with and without ties, poor prefixes of different lengths, and ties
    # among non-poor values inside another row's poor prefix.
    rng = np.random.default_rng(3)
    heaped = np.floor(8.0 * rng.random((5, 301))) / 4.0
    smooth = rng.lognormal(0.0, 0.8, (3, 301))
    smooth[2] *= 4.0
    return np.sort(np.vstack([heaped, smooth]), axis=1)


@pytest.mark.parametrize("strict", [False, True])
def test_plugin_rows_match_one_row_oracles(strict):
    config = PovertyConfig(1.0, strict_comparison=strict)
    rows = _ties_chunk()
    scored = plugin_rows(rows, rows.mean(axis=1), config)
    index = takayama_rows(rows, rows.mean(axis=1), config)
    for i, row in enumerate(rows):
        dist = build_empirical(IncomeSample(row))
        want = influence_sigma_oracle(dist, config)
        assert index[i] == pytest.approx(
            takayama_empirical_oracle(dist, config).value, rel=1e-12)
        assert scored.sigma1_sq[i] == pytest.approx(want.sigma1_sq, rel=1e-12)
        assert scored.sigma2_sq[i] == pytest.approx(want.sigma2_sq, rel=1e-12)
        assert scored.sigma12[i] == pytest.approx(want.sigma12, rel=1e-12)
        assert scored.total[i] == pytest.approx(want.total, rel=1e-12)
        one = sigma_plugin(dist, config)
        assert one.total == pytest.approx(want.total, rel=1e-12)
        assert takayama_empirical(dist, config).value == index[i]


def test_plugin_rows_no_poor_and_all_poor():
    rows = np.sort(np.random.default_rng(4).random((3, 50)), axis=1) + 2.0
    for line in (1.0, 10.0):
        config = PovertyConfig(line)
        scored = plugin_rows(rows, rows.mean(axis=1), config)
        for i, row in enumerate(rows):
            want = influence_sigma_oracle(build_empirical(IncomeSample(row)), config)
            assert scored.total[i] == pytest.approx(want.total, rel=1e-12, abs=1e-300)


RANK_TOL = 2.0


@pytest.mark.parametrize("n", [50, 2000])
def test_plugin_rows_near_cell_sums_on_tie_free_rows(n):
    # The cell route integrates the bridge term over n quantile cells where
    # the influence moments average it over n atoms; inside one cell B moves
    # by one step |q| / n, so the two differ by O(1/n) on the scale of the
    # components.  RANK_TOL is the constant the benchmark's output check uses.
    rows = np.sort(np.random.default_rng(n).lognormal(0.0, 0.8, (4, n)), axis=1)
    assert (np.diff(rows, axis=1) > 0).all()
    scored = plugin_rows(rows, rows.mean(axis=1), CFG1)
    for i, row in enumerate(rows):
        cell = cell_sum_sigma_oracle(build_empirical(IncomeSample(row)), CFG1)
        tol = RANK_TOL * (cell.sigma1_sq + cell.sigma2_sq) / n
        for got, want in ((scored.sigma1_sq[i], cell.sigma1_sq),
                          (scored.sigma2_sq[i], cell.sigma2_sq),
                          (scored.sigma12[i], cell.sigma12),
                          (scored.total[i], cell.total)):
            assert abs(got - want) <= tol


def test_plugin_rows_reads_the_influence_core(monkeypatch):
    # sigma_plugin and the replicate engine get g and B from one
    # influence_rows call per plugin_rows call, as the gap variance does.
    calls = []

    def counting_core(sorted_rows, *args, **kwargs):
        calls.append(sorted_rows.shape)
        return influence_rows(sorted_rows, *args, **kwargs)

    monkeypatch.setattr(asymptotics, "influence_rows", counting_core)
    sigma_plugin(build_empirical(IncomeSample(np.linspace(0.1, 2.0, 30))), CFG1)
    assert calls == [(1, 30)]
    rows = _ties_chunk()
    plugin_rows(rows, rows.mean(axis=1), CFG1)
    assert calls[1:] == [rows.shape]


STUDIES = {
    "benchmark-mixture": (mixture((exponential(1.0), lognormal(0.0, 0.8)), (0.5, 0.5)),
                          PovertyConfig(1.0), 2000, 40),
    "heaped": (_heaped_uniform(), PovertyConfig(1.0), 501, 60),
    "zero-mean-replicates": (_zero_inflated(), PovertyConfig(1.5), 4, 200),
}


@pytest.mark.parametrize("compute_variance", [True, False])
@pytest.mark.parametrize("name", sorted(STUDIES))
def test_run_replicates_matches_loop_oracle(name, compute_variance):
    model, config, n, reps = STUDIES[name]
    study = ReplicateStudy(model, n, reps, 23, config)
    got = run_replicates(study, compute_variance=compute_variance)
    want = run_replicates_loop_oracle(study, compute_variance=compute_variance)
    assert got.truth == want.truth
    _assert_close_or_both_nan(got.values, want.values, 1e-12)
    _assert_close_or_both_nan(got.variances, want.variances, 1e-12)
    assert np.array_equal(got.ci_hits, want.ci_hits)
    assert np.array_equal(got.degenerate, want.degenerate)
    if name == "zero-mean-replicates":
        assert 20 <= got.degenerate.sum() <= reps - 20
    if name == "heaped" and compute_variance:
        assert got.ci_hits.any()


@pytest.mark.parametrize("compute_variance", [True, False])
def test_gap_study_bit_identical_to_loop_oracle(compute_variance):
    model = mixture((exponential(1.0), exponential(0.5)), (0.5, 0.5))
    study = ReplicateStudy(model, 600, 20, 5, CFG1)
    got = run_replicates(study, target="gap", compute_variance=compute_variance)
    want = run_replicates_loop_oracle(study, target="gap",
                                      compute_variance=compute_variance)
    assert np.array_equal(got.values, want.values, equal_nan=True)
    assert np.array_equal(got.variances, want.variances, equal_nan=True)
    assert np.array_equal(got.ci_hits, want.ci_hits)
    assert np.array_equal(got.degenerate, want.degenerate)


def test_run_replicates_scores_whole_chunks(monkeypatch):
    # One core call per chunk of max(1, CHUNK_ELEMENTS // n) replicates and
    # no per-replicate sigma_plugin call.
    core_calls, plugin_calls = [], []

    def counting_core(sorted_rows, *args, **kwargs):
        core_calls.append(sorted_rows.shape[0])
        return plugin_rows(sorted_rows, *args, **kwargs)

    def counting_plugin(*args, **kwargs):
        plugin_calls.append(1)
        return sigma_plugin(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "plugin_rows", counting_core)
    monkeypatch.setattr(asymptotics, "sigma_plugin", counting_plugin)
    n, reps = 500, 100
    rows = max(1, CHUNK_ELEMENTS // n)
    run_replicates(ReplicateStudy(uniform(0.0, 1.0), n, reps, 3, CFG1))
    assert len(core_calls) == -(-reps // rows)
    assert core_calls[:-1] == [rows] * (len(core_calls) - 1)
    assert sum(core_calls) == reps
    assert not plugin_calls


def test_run_replicates_memory_flat_in_replicate_count():
    # The chunk cap keeps the engine's peak allocation independent of R.
    def peak(reps):
        study = ReplicateStudy(uniform(0.0, 1.0), 2000, reps, 7, CFG1)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run_replicates(study)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_replicates(ReplicateStudy(uniform(0.0, 1.0), 2000, 1, 7, CFG1))
    assert peak(2000) - peak(100) < 1_000_000

