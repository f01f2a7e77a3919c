"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The stochastic criteria use fixed seeds; their tolerances were
chosen with margin (observed agreement is several times tighter).
"""
import numpy as np

from takayama import (ConfidenceInterval, IncomeSample, PovertyConfig,
                      QuadratureSettings, ReplicateStudy, analytic_partition,
                      build_empirical, decomposability_gap, exponential,
                      fgt_index, gap_variance, ks_normality, mixture, partition,
                      population_truth, recompose_interval,
                      representation_residual, run_replicates,
                      sigma_plugin, takayama_empirical, takayama_population,
                      uniform)

from _oracles import (bootstrap_variance_loop_oracle, bridge_quadratic_step,
                      draw_mixture_sample_oracle, nested_gap_variance_oracle,
                      sigma2_step_quadrature)

CFG1 = PovertyConfig(1.0)


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def _substream(entropy, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy,
                                                        spawn_key=key))


def test_criterion_1_exact_values():
    checks = []
    checks.append(abs(takayama_empirical(
        build_empirical(IncomeSample([5.0])), PovertyConfig(10.0)).value) <= 1e-12)
    for n in (1, 3, 9, 50):
        dist = build_empirical(IncomeSample(np.linspace(2.0, 3.0, n)))
        checks.append(abs(takayama_empirical(dist, CFG1).value - (1 + 1 / n)) <= 1e-12)
    checks.append(abs(takayama_empirical(
        build_empirical(IncomeSample([1.0, 3.0])), PovertyConfig(2.0)).value - 1.0)
        <= 1e-12)

    rng = _substream(1001)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        values = rng.uniform(0.05, 4.0, n)
        labels = rng.choice(np.array(["a", "b"], dtype=object), n)
        if len(set(labels.tolist())) < 2:
            labels[0] = "a" if labels[0] == "b" else "b"
        part = partition(IncomeSample(values, group_labels=labels))
        z = float(rng.uniform(0.2, 4.0))
        alpha = float(rng.choice([0.0, 1.0, 2.0]))
        cfg = PovertyConfig(z)
        fgt_gap = fgt_index(part.pooled, cfg, alpha).value - sum(
            g.weight * fgt_index(g.dist, cfg, alpha).value for g in part.groups)
        checks.append(abs(fgt_gap) <= 1e-12)

        single = partition(IncomeSample(values,
                                        group_labels=np.array(["g"] * n, dtype=object)))
        checks.append(abs(decomposability_gap(single, PovertyConfig(z)).gap) <= 1e-12)

    _report("1 exact-value suite", all(checks),
            f"{len(checks)} identities at 1e-12")


def test_criterion_2_gini_coincidence():
    rng = _substream(1002)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 51))
        values = rng.uniform(0.1, 5.0, n)
        dist = build_empirical(IncomeSample(values))
        t_val = takayama_empirical(dist, PovertyConfig(values.max() + 1.0)).value
        ranks = np.arange(1, n + 1)
        gini = 2.0 * np.dot(ranks, dist.sorted_values) / (n * n * dist.mean) \
            - (n + 1) / n
        worst = max(worst, abs(t_val - gini))
    _report("2 gini coincidence", worst <= 1e-12, f"max |T_n - Gini| = {worst:.2e}")


def test_criterion_3_population_truth():
    value = takayama_population(uniform(0.0, 1.0), CFG1).value
    _report("3 population truth", abs(value - 1 / 3) < 1e-8,
            f"T = {value:.10f} vs 1/3")


def test_criterion_4_representation_decay():
    dist = uniform(0.0, 1.0)
    medians = {}
    for n in (500, 2000):
        draws = np.stack([_substream(41, n, rep).random(n) for rep in range(500)])
        medians[n] = float(np.median(np.abs(representation_residual(draws, dist, CFG1))))
    _report("4 representation decay", medians[2000] < medians[500],
            f"median |remainder| {medians[500]:.5f} -> {medians[2000]:.5f}")


def test_criterion_5_variance_oracle():
    n, reps = 5000, 2000
    values = np.empty(reps)
    for rep in range(reps):
        draw = _substream(52, rep).random(n)
        values[rep] = takayama_empirical(
            build_empirical(IncomeSample(draw)), CFG1).value
    mc_variance = n * values.var(ddof=1)

    sample = _substream(53).random(n)
    plug = sigma_plugin(build_empirical(IncomeSample(sample)), CFG1)
    boot = bootstrap_variance_loop_oracle(sample, CFG1, 500, seed=54)

    rel_mc = abs(plug.total / mc_variance - 1.0)
    rel_boot = abs(plug.total / boot - 1.0)

    small = _substream(55).random(64)
    emp = build_empirical(IncomeSample(small))
    nu = np.where(emp.sorted_values <= 1.0, -2.0 * emp.sorted_values / emp.mean, 0.0)
    quad_gap = abs(bridge_quadratic_step(nu)
                   - sigma2_step_quadrature(nu, QuadratureSettings(abs_tol=1e-9)))

    _report("5 variance oracle",
            rel_mc < 0.10 and rel_boot < 0.15 and quad_gap < 1e-6,
            f"plug={plug.total:.5f} mc={mc_variance:.5f} ({rel_mc:.1%}), "
            f"boot={boot:.5f} ({rel_boot:.1%}), sigma2 quad gap={quad_gap:.1e}")


def test_criterion_6_normality_and_coverage():
    study = ReplicateStudy(uniform(0.0, 1.0), sample_size=2000,
                           replicate_count=1000, seed=66, config=CFG1)
    records = run_replicates(study, threads=2)
    deviations = records.scaled_deviations(2000)
    ks = ks_normality(deviations)
    coverage = records.coverage()
    _report("6 normality and coverage",
            ks.passed and 0.93 <= coverage <= 0.97,
            f"KS={ks.statistic:.4f} (crit {ks.critical_value:.4f}), "
            f"coverage={coverage:.4f}")


def test_criterion_7_gap_limit():
    groups = [("0", exponential(1.0), 0.5), ("1", exponential(0.5), 0.5)]
    model = mixture([law for _, law, _ in groups], [w for _, _, w in groups])
    assembled = gap_variance(analytic_partition(groups), CFG1).gap_centered_total
    gd = population_truth(model, CFG1, "gap")
    n, reps = 5000, 2000
    gaps = np.empty(reps)
    for rep in range(reps):
        sample = draw_mixture_sample_oracle(model, n, _substream(77, rep))
        gaps[rep] = decomposability_gap(partition(sample), CFG1).gap
    mc_variance = n * float(np.mean((gaps - gd) ** 2))
    rel = abs(assembled / mc_variance - 1.0)

    single = analytic_partition([("g", exponential(1.0), 1.0)])
    gv_single = gap_variance(single, CFG1)
    nested_single = nested_gap_variance_oracle(single, CFG1)
    single_components = (nested_single.a1, nested_single.a2, nested_single.a31,
                         nested_single.a32, nested_single.b1, nested_single.b2,
                         nested_single.b3, gv_single.theta1_sq, gv_single.theta2_sq,
                         gv_single.theta3_sq)
    identical = analytic_partition([("a", exponential(1.0), 0.5),
                                    ("b", exponential(1.0), 0.5)])
    tight = PovertyConfig(1.0, quadrature=QuadratureSettings(abs_tol=1e-11))
    gv_id = gap_variance(identical, tight)
    degenerate_ok = (all(abs(v) <= 1e-10 for v in single_components)
                     and abs(gv_id.theta1_sq) <= 1e-10
                     and abs(gv_id.theta2_sq) <= 1e-10
                     and abs(gv_id.theta3_sq) <= 1e-10)

    _report("7 gap limit", rel < 0.15 and degenerate_ok,
            f"assembled={assembled:.5f} mc={mc_variance:.5f} ({rel:.1%}); "
            f"degenerate cases at 1e-10: {degenerate_ok}")


def test_criterion_8_reported_arithmetic_anchors():
    ci = ConfidenceInterval(0.0203, 0.0099, 0.95)
    first = (abs(ci.lower - 0.0104) <= 1e-12 and abs(ci.upper - 0.0302) <= 1e-12)
    recomposed = recompose_interval(0.9111, ci)
    second = (abs(recomposed.lower - 0.9215) <= 1e-12
              and abs(recomposed.upper - 0.9413) <= 1e-12)
    _report("8 arithmetic anchors", first and second,
            f"gap CI [{ci.lower:.4f}, {ci.upper:.4f}], "
            f"recomposed [{recomposed.lower:.4f}, {recomposed.upper:.4f}]")


def test_criterion_9_determinism_across_threads():
    model = mixture((exponential(1.0), exponential(0.5)), (0.5, 0.5))

    def snapshot(study, target):
        runs = [run_replicates(study, target=target, threads=k) for k in (1, 4, 8)]
        base = runs[0]
        return all(
            np.array_equal(base.values, other.values)
            and np.array_equal(base.variances, other.variances, equal_nan=True)
            and np.array_equal(base.ci_hits, other.ci_hits)
            and np.array_equal(base.degenerate, other.degenerate)
            for other in runs[1:])

    index_ok = snapshot(ReplicateStudy(model, 1000, 100, 99, CFG1), "takayama")
    gap_ok = snapshot(ReplicateStudy(model, 600, 30, 100, CFG1), "gap")
    _report("9 determinism", index_ok and gap_ok,
            f"takayama study: {index_ok}, gap study: {gap_ok} at 1/4/8 threads")
