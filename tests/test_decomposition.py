import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from takayama import (ConfidenceInterval, EmpiricalDistribution, GapVariance,
                      IncomeSample, NumericalError, PovertyConfig, QuadratureSettings,
                      Subgroup, analytic_partition, build_empirical,
                      decomposability_gap, decomposition, exponential, fgt_index,
                      gap_variance, lognormal, mixture, pareto, partition, population,
                      recompose_interval, uniform)

from _oracles import (GapComponents, brentq_quantile, brute_force_gap_thetas,
                      cell_sum_gap_variance_oracle, draw_mixture_sample_oracle,
                      gap_variance_influence_oracle, nested_gap_variance_oracle)

CFG1 = PovertyConfig(1.0)

labelled_samples = st.lists(
    st.tuples(st.floats(0.01, 100.0, allow_nan=False),
              st.sampled_from(["a", "b", "c"])),
    min_size=2, max_size=40)


def _sample(pairs):
    values = np.array([v for v, _ in pairs])
    labels = np.array([lab for _, lab in pairs], dtype=object)
    return IncomeSample(values, group_labels=labels)


# ---------------------------------------------------------------------------
# partitioning


def test_partition_weights_and_order():
    part = partition(_sample([(1.0, "a"), (2.0, "a"), (3.0, "b")]))
    assert part.group_count == 2
    assert [g.label for g in part.groups] == ["a", "b"]
    assert part.weights.tolist() == [2 / 3, 1 / 3]
    assert part.pooled.size == 3


def test_partition_single_label():
    part = partition(_sample([(1.0, "a"), (2.0, "a")]))
    assert part.group_count == 1
    assert part.groups[0].weight == 1.0


def test_partition_singleton_groups():
    part = partition(_sample([(1.0, "a"), (2.0, "b")]))
    assert part.group_count == 2
    assert all(g.size == 1 for g in part.groups)


def test_partition_requires_labels():
    with pytest.raises(ValueError, match="labels"):
        partition(IncomeSample([1.0, 2.0]))


def test_partition_one_pass_pins_order_sizes_and_values():
    rng = np.random.default_rng(16)
    names = [f"r{k:02d}" for k in rng.permutation(16)]
    labels = np.array(names, dtype=object).repeat(np.arange(1, 17))
    rng.shuffle(labels)
    values = np.round(rng.lognormal(0.0, 0.8, labels.size), 2)
    part = partition(IncomeSample(values, group_labels=labels))

    first_seen = list(dict.fromkeys(labels.tolist()))
    assert [g.label for g in part.groups] == first_seen
    for group in part.groups:
        members = values[labels == group.label]
        assert group.size == members.size
        assert group.weight == members.size / values.size
        assert group.dist.sorted_values.tolist() == np.sort(members).tolist()
    assert part.pooled.sorted_values.tolist() == np.sort(values).tolist()


def test_partition_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="^empty sample$"):
        partition(IncomeSample([], group_labels=np.array([], dtype=object)))


def test_partition_rejects_nan_label_as_empty_group():
    labels = np.array(["a", float("nan"), "a"], dtype=object)
    with pytest.raises(ValueError, match="empty group nan"):
        partition(IncomeSample([1.0, 2.0, 3.0], group_labels=labels))


def test_empty_group_rejected():
    with pytest.raises(ValueError):
        Subgroup("empty", build_empirical(IncomeSample([1.0])), weight=0.0)
    with pytest.raises(ValueError, match="empty"):
        Subgroup("empty", EmpiricalDistribution(np.array([]), 1.0), weight=1.0)


def test_subgroup_size_reads_the_distribution():
    empirical = Subgroup("a", build_empirical(IncomeSample([1.0, 2.0])), weight=1.0)
    assert empirical.size == 2
    assert Subgroup("b", uniform(0.0, 1.0), weight=1.0).size is None


def test_pooled_cdf_is_weighted_mixture_of_group_cdfs(rng):
    values = rng.uniform(0.1, 3.0, 60)
    labels = rng.choice(np.array(["a", "b", "c"], dtype=object), 60)
    part = partition(IncomeSample(values, group_labels=labels))

    def step_cdf(dist, x):
        return np.searchsorted(dist.sorted_values, x, side="right") / dist.size

    for x in values:
        mix = sum(g.weight * step_cdf(g.dist, x) for g in part.groups)
        assert step_cdf(part.pooled, x) == pytest.approx(mix, abs=1e-15)


# ---------------------------------------------------------------------------
# the gap


def test_gap_single_group_is_zero():
    part = partition(_sample([(0.5, "a"), (2.0, "a"), (0.7, "a")]))
    assert decomposability_gap(part, CFG1).gap == 0.0


def test_gap_identical_analytic_components():
    part = analytic_partition([("a", uniform(0.0, 1.0), 0.5),
                               ("b", uniform(0.0, 1.0), 0.5)])
    estimate = decomposability_gap(part, CFG1)
    assert estimate.gap == pytest.approx(0.0, abs=1e-8)


def test_gap_hand_worked_two_groups():
    # pooled (1,2,3,4) at Z=2.5: direct arithmetic of the L-statistic
    sample = _sample([(1.0, "a"), (3.0, "a"), (2.0, "b"), (4.0, "b")])
    part = partition(sample)
    estimate = decomposability_gap(part, PovertyConfig(2.5))
    pooled = 1 + 1 / 4 - 2 * (4 * 1 + 3 * 2) / (2.5 * 16)
    group_a = 1 + 1 / 2 - 2 * (2 * 1) / (2.0 * 4)
    group_b = 1 + 1 / 2 - 2 * (2 * 2) / (3.0 * 4)
    assert estimate.global_index == pytest.approx(pooled, abs=1e-15)
    assert estimate.gap == pytest.approx(pooled - (group_a + group_b) / 2, abs=1e-14)
    assert estimate.gap == pytest.approx(-1 / 6, abs=1e-12)


@given(labelled_samples, st.floats(0.1, 50.0))
def test_gap_identity_is_bit_exact(pairs, z):
    part = partition(_sample(pairs))
    estimate = decomposability_gap(part, PovertyConfig(z))
    reconstructed = estimate.global_index - float(
        np.dot(estimate.weights, estimate.local_indices))
    assert estimate.gap == reconstructed


@given(labelled_samples, st.floats(0.1, 50.0), st.sampled_from([0.0, 1.0, 2.0]))
def test_fgt_gap_vanishes_through_partition_machinery(pairs, z, alpha):
    part = partition(_sample(pairs))
    config = PovertyConfig(z)
    gap = fgt_index(part.pooled, config, alpha).value - sum(
        g.weight * fgt_index(g.dist, config, alpha).value for g in part.groups)
    assert abs(gap) < 1e-12


# ---------------------------------------------------------------------------
# gap variance: degenerate cases


def _flat(gv: GapComponents):
    return (gv.a1, gv.a2, gv.a31, gv.a32, gv.b1, gv.b2, gv.b3,
            gv.theta1_sq, gv.theta2_sq, gv.theta3_sq)


def _thetas(gv: GapVariance):
    return (gv.theta1_sq, gv.theta2_sq, gv.theta3_sq)


def test_theta2_is_a_centred_weighted_variance():
    # Gap scalars near -0.70 that differ in the fifth digit: E[v^2] - vbar^2
    # loses about seven digits here, the centred sum keeps them.
    rng = np.random.default_rng(1)
    values = rng.lognormal(0.0, 0.8, 4000)
    labels = rng.choice(np.array(["a", "b"], dtype=object), 4000)
    part = partition(IncomeSample(values, group_labels=labels))
    variance = gap_variance(part, CFG1)
    local = decomposability_gap(part, CFG1).local_indices
    gap_scalars = [m - t for (m, _), t in
                   zip(decomposition._empirical_gap_moments(part, CFG1), local)]

    p = [Fraction(w) for w in part.weights]
    v = [Fraction(x) for x in gap_scalars]
    mean = sum(pi * vi for pi, vi in zip(p, v))
    exact = float(sum(pi * (vi - mean) ** 2 for pi, vi in zip(p, v)))
    assert 1e-11 < exact < 1e-9
    assert variance.theta2_sq == pytest.approx(exact, rel=1e-12, abs=0.0)
    one_pass = (np.dot(part.weights, np.square(gap_scalars))
                - np.dot(part.weights, gap_scalars) ** 2)
    assert abs(one_pass - exact) > 1e-9 * exact


def test_gap_variance_single_group_all_zero_empirical(rng):
    labels = np.array(["g"] * 150, dtype=object)
    part = partition(IncomeSample(rng.random(150), group_labels=labels))
    assert all(abs(v) < 1e-12 for v in _thetas(gap_variance(part, CFG1)))
    assert all(abs(v) < 1e-12 for v in _flat(cell_sum_gap_variance_oracle(part, CFG1)))


def test_gap_variance_single_group_all_zero_analytic():
    part = analytic_partition([("g", exponential(1.0), 1.0)])
    assert all(abs(v) < 1e-10 for v in _thetas(gap_variance(part, CFG1)))
    assert all(abs(v) < 1e-10 for v in _flat(nested_gap_variance_oracle(part, CFG1)))


def test_gap_variance_identical_groups_thetas_vanish_analytic():
    part = analytic_partition([("a", exponential(1.0), 0.5),
                               ("b", exponential(1.0), 0.5)])
    quad = QuadratureSettings(abs_tol=1e-11)
    gv = gap_variance(part, PovertyConfig(1.0, quadrature=quad))
    assert abs(gv.theta1_sq) < 1e-10
    assert abs(gv.theta2_sq) < 1e-10
    assert abs(gv.theta3_sq) < 1e-10
    # the individual bridge components do not vanish; they cancel
    assert nested_gap_variance_oracle(part, CFG1, quad).a2 > 1e-4


def test_gap_variance_identical_groups_thetas_vanish_empirical(rng):
    values = rng.uniform(0.05, 2.0, 80)
    doubled = np.concatenate([values, values])
    labels = np.array(["a"] * 80 + ["b"] * 80, dtype=object)
    part = partition(IncomeSample(doubled, group_labels=labels))
    gv = gap_variance(part, CFG1)
    assert abs(gv.theta2_sq) < 1e-12
    assert abs(gv.theta3_sq) < 1e-12


def test_gap_variance_permutation_invariant(rng):
    base = [("a", exponential(1.0), 0.25), ("b", exponential(0.5), 0.4),
            ("c", uniform(0.0, 2.0), 0.35)]
    quad = QuadratureSettings(abs_tol=1e-9)
    config = PovertyConfig(1.0, quadrature=quad)
    gv1 = gap_variance(analytic_partition(base), config)
    gv2 = gap_variance(analytic_partition(base[::-1]), config)
    assert gv1.theta1_sq == pytest.approx(gv2.theta1_sq, rel=1e-6, abs=1e-9)
    assert gv1.theta2_sq == pytest.approx(gv2.theta2_sq, rel=1e-6, abs=1e-9)
    assert gv1.theta3_sq == pytest.approx(gv2.theta3_sq, rel=1e-6, abs=1e-9)
    nested1 = nested_gap_variance_oracle(analytic_partition(base), CFG1, quad)
    nested2 = nested_gap_variance_oracle(analytic_partition(base[::-1]), CFG1, quad)
    for name in ("a1", "a2", "a31", "a32", "b1", "b2", "b3"):
        assert getattr(nested1, name) == pytest.approx(getattr(nested2, name),
                                                       rel=1e-6, abs=1e-9)


def test_gap_variance_inconsistent_assembly_rejected():
    with pytest.raises(NumericalError, match="inconsistent"):
        GapComponents(1, 0, 0, 0, 0, 0, 0, theta1_sq=5.0, theta2_sq=0.0,
                      theta3_sq=0.0)
    with pytest.raises(NumericalError, match="inconsistent"):
        GapVariance(theta1_sq=0.0, theta2_sq=-1.0, theta3_sq=0.0)


# ---------------------------------------------------------------------------
# gap variance: oracle agreement


def test_gap_variance_matches_influence_oracle_two_groups():
    groups = [exponential(1.0), exponential(0.5)]
    weights = [0.5, 0.5]
    part = analytic_partition([("0", groups[0], 0.5), ("1", groups[1], 0.5)])
    gv = gap_variance(part, CFG1)
    v_gd, v_gd0 = gap_variance_influence_oracle(groups, weights, CFG1)
    assert gv.gap_centered_total == pytest.approx(v_gd, rel=2e-4)
    assert gv.mixed_centered_total == pytest.approx(v_gd0, rel=2e-4)


def test_gap_variance_matches_influence_oracle_three_groups():
    # three distinct groups exercise the cross-pair component a32
    groups = [exponential(1.0), exponential(0.5), uniform(0.0, 2.0)]
    weights = [0.5, 0.3, 0.2]
    part = analytic_partition(list(zip("012", groups, weights)))
    gv = gap_variance(part, CFG1)
    assert abs(nested_gap_variance_oracle(part, CFG1).a32) > 1e-5
    v_gd, v_gd0 = gap_variance_influence_oracle(groups, weights, CFG1)
    assert gv.gap_centered_total == pytest.approx(v_gd, rel=5e-4)
    assert gv.mixed_centered_total == pytest.approx(v_gd0, rel=5e-4)


QUANTILE_MIXTURES = [
    ((exponential(1.0), exponential(0.5), uniform(0.0, 2.0)), (0.5, 0.3, 0.2)),
    ((exponential(1.0), lognormal(0.0, 0.8), pareto(1.0, 3.0)), (0.5, 0.3, 0.2)),
]


def test_mixture_quantile_matches_brentq_oracle():
    s = np.linspace(0.0005, 0.9995, 200)
    for components, weights in QUANTILE_MIXTURES:
        pooled = mixture(components, weights)
        reference = brentq_quantile(pooled)
        want = np.array([reference(v) for v in s])
        assert np.max(np.abs(pooled.quantile(s) - want)) <= 1e-12


def test_mixture_quantile_is_the_left_continuous_inverse():
    # Q(1) lies past every finite support end: F(2) = 0.93 here.
    assert mixture(*QUANTILE_MIXTURES[0]).quantile(1.0) == math.inf
    # F is flat at 0.5 over [1, 2]; inf{x : F(x) >= 0.5} is its left end.
    gapped = mixture([uniform(0.0, 1.0), uniform(2.0, 3.0)], [0.5, 0.5])
    assert gapped.quantile(0.5) == pytest.approx(1.0, abs=1e-12)
    heavy = mixture(*QUANTILE_MIXTURES[1])
    assert heavy.quantile(0.0) == 0.0
    assert np.isnan(heavy.quantile(np.nan))
    assert np.shape(heavy.quantile(0.3)) == ()
    assert heavy.quantile(np.array([[0.0, np.nan], [0.3, 0.6]])).shape == (2, 2)


def test_empirical_gap_variance_consistent_with_analytic(rng):
    groups = [("0", exponential(1.0), 0.5), ("1", exponential(0.5), 0.5)]
    model = mixture([law for _, law, _ in groups], [w for _, _, w in groups])
    sample = draw_mixture_sample_oracle(model, 40_000, rng)
    emp_part, ana_part = partition(sample), analytic_partition(groups)
    emp = gap_variance(emp_part, CFG1)
    ana = gap_variance(ana_part, CFG1)
    assert emp.gap_centered_total == pytest.approx(ana.gap_centered_total, rel=0.10)
    assert emp.theta1_sq == pytest.approx(ana.theta1_sq, rel=0.10)
    # On both routes theta1^2 is the weighted sum of the group variances of
    # a_h, theta3^2 the weighted variance of the means E_h a_h, and theta2^2
    # that of the gap scalars: the means less each group's own index.
    emp_moments = decomposition._empirical_gap_moments(emp_part, CFG1)
    ana_moments = population.gap_moments([law for _, law, _ in groups],
                                         ana_part.weights, CFG1)
    for part, gv, moments in ((emp_part, emp, emp_moments), (ana_part, ana, ana_moments)):
        local = decomposability_gap(part, CFG1).local_indices
        m = np.array([mean for mean, _ in moments])
        var = np.array([v for _, v in moments])
        assert gv.theta1_sq == pytest.approx(np.dot(part.weights, var), rel=1e-12, abs=0.0)
        for scalars, theta in ((m, gv.theta3_sq), (m - np.array(local), gv.theta2_sq)):
            centred = scalars - np.dot(part.weights, scalars)
            assert theta == pytest.approx(np.dot(part.weights, centred ** 2),
                                          rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [2, 3, 8])
def test_empirical_gap_variance_matches_cell_sum_oracle(k):
    """Influence vectors against the exact cell sums on continuous data.

    Within group i the library averages a_i over n_i atoms, while the oracle
    integrates over n_i quantile cells, inside which the bridge term moves by
    at most one step of q / n_i.  The group's variance therefore differs by
    O(1/n_i) on the scale of the kernels, which is the scale of the gap
    variance v, and the group enters with weight n_i / n: it adds O(v / n).
    Summed over K groups the difference is K v / n up to a constant, taken
    as 2 (the observed differences stay below a tenth of 2 K v / n).
    """
    rng = np.random.default_rng(100 + k)
    n = 3000
    values = rng.lognormal(0.0, 0.8, n) * rng.choice([0.6, 1.0, 1.5], n)
    labels = rng.integers(0, k, n).astype(str).astype(object)
    part = partition(IncomeSample(values, group_labels=labels))
    gv = gap_variance(part, CFG1)
    oracle = cell_sum_gap_variance_oracle(part, CFG1)
    for ours, theirs in ((gv.gap_centered_total, oracle.gap_centered_total),
                         (gv.mixed_centered_total, oracle.mixed_centered_total)):
        assert abs(ours - theirs) <= 2.0 * k * theirs / n
    assert abs(gv.theta1_sq - oracle.theta1_sq) <= 2.0 * k * oracle.gap_centered_total / n


_EDGE_CASES = {
    "singleton group": ([0.3, 0.9, 1.4, 2.2, 0.5, 1.1, 0.7], list("aabbbbc"), CFG1),
    "group with no poor": ([0.2, 0.6, 1.3, 0.9, 2.0, 3.5, 4.0, 5.5],
                           list("aaaabbbb"), CFG1),
    "all-tied group and zeros": ([0.0, 0.0, 0.4, 1.2, 0.8, 0.8, 0.8, 0.8, 2.5, 0.0],
                                 list("aaaabbbbaa"), CFG1),
    "strict comparison": ([0.5, 1.0, 1.0, 2.0, 1.0, 0.25, 3.0, 1.0],
                          list("ababcabc"), PovertyConfig(1.0, strict_comparison=True)),
}


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_empirical_gap_variance_matches_brute_force_edge_cases(case):
    values, labels, config = _EDGE_CASES[case]
    sample = IncomeSample(values, group_labels=np.array(labels, dtype=object))
    gv = gap_variance(partition(sample), config)
    expected = brute_force_gap_thetas(values, labels, config)
    assert _thetas(gv) == pytest.approx(expected, rel=1e-10, abs=1e-14)
    assert gv.theta1_sq >= 0.0


@pytest.mark.parametrize("k", [4, 16])
def test_empirical_gap_variance_work_is_linear_in_k(k, monkeypatch):
    # Guards the O(n log n) route by counting calls: K + 1 calls of the
    # influence core (the pooled one made once, not once per group) and a
    # fixed number of binary searches per call, where loops over pairs or
    # triples of groups would need thousands at K = 16.
    cores, searches = [], []
    original_core = decomposition.influence_rows
    original_search = np.searchsorted

    def counting_core(sorted_rows, *args, **kwargs):
        cores.append(sorted_rows.shape)
        return original_core(sorted_rows, *args, **kwargs)

    def counting_search(*args, **kwargs):
        searches.append(1)
        return original_search(*args, **kwargs)

    rng = np.random.default_rng(k)
    labels = np.arange(400) % k
    sample = IncomeSample(rng.lognormal(0.0, 0.8, 400),
                          group_labels=labels.astype(str).astype(object))
    part = partition(sample)
    monkeypatch.setattr(decomposition, "influence_rows", counting_core)
    monkeypatch.setattr(np, "searchsorted", counting_search)
    gap_variance(part, CFG1)
    assert len(cores) == k + 1
    assert cores.count((1, part.pooled.size)) == 1
    assert len(searches) <= 10 * (k + 1)


# ---------------------------------------------------------------------------
# recomposition


def test_recompose_interval_degenerate_gap():
    ci = recompose_interval(0.9111, ConfidenceInterval(0.0, 0.0, 0.95))
    assert ci.lower == ci.upper == pytest.approx(0.9111)


def test_recompose_reported_area_numbers():
    gap_ci = ConfidenceInterval(0.0203, 0.0099, 0.95)
    ci = recompose_interval(0.9111, gap_ci)
    assert ci.lower == pytest.approx(0.9215, abs=1e-12)
    assert ci.upper == pytest.approx(0.9413, abs=1e-12)


def test_recompose_global_from_partition():
    sample = _sample([(0.4, "a"), (1.5, "a"), (0.9, "b"), (2.5, "b")])
    part = partition(sample)
    gap_ci = ConfidenceInterval(0.01, 0.005, 0.95)
    estimate = decomposability_gap(part, CFG1)
    ci = recompose_interval(estimate.weighted_local_sum, gap_ci)
    assert ci.center == pytest.approx(estimate.weighted_local_sum + 0.01, abs=1e-14)
    assert ci.half_width == 0.005
