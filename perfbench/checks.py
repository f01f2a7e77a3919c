"""Output checks for the benchmark workloads.

Each check takes the program's report (a parsed JSON object) and data the
benchmark made itself, recomputes what it can with its own numpy code or
from properties the method must have, and returns a list of problems; an
empty list means the report passed.  Nothing here imports takayama.

Tolerances, and why they hold:

* Index values (T_n, subgroup indices, the gap arithmetic): 1e-12
  relative.  Both sides sum the same L-statistic in double precision.
* Plug-in variance components: RANK_TOL * (sigma1^2 + sigma2^2) / n.  The
  program sums exact integrals over n quantile cells; the benchmark takes
  moments of the influence vector phi = g - (B - E B) over the n atoms.
  The two differ by the variation of B inside one cell, |q| / n, so the
  gap is O(1/n).
* Gap variance: RANK_TOL * K * v / n.  Each of the K groups adds its own
  O(1/n_i) cell-versus-atom term with weight n_i / n.
* Confidence half-widths: 1e-9 relative, against statistics.NormalDist.
* Monte Carlo properties: four binomial or Monte Carlo standard errors.
* Population quantities against one large sample: POPULATION_SE standard
  errors, the errors estimated from the spread over POPULATION_BATCHES
  disjoint batches of the sample.
"""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

RANK_TOL = 2.0
MC_SE = 4.0
POPULATION_SE = 6.0
POPULATION_BATCHES = 40


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def l_statistic(values: np.ndarray, line: float) -> float:
    """T_n = 1 + 1/n - (2 / mu_n) (1/n) sum over the poor of x_(j) (1 - (j-1)/n)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    q = int(np.searchsorted(x, line, side="right"))
    survival = 1.0 - np.arange(q) / n
    return 1.0 + 1.0 / n - 2.0 * float(np.dot(survival, x[:q])) / (float(x.mean()) * n)


def influence(values: np.ndarray, line: float) -> tuple[np.ndarray, np.ndarray]:
    """(g, B) per observation, in input order.

    g(x) = 2 (P(h) x / mu^2 - h(x) / mu) with h(x) = x (1 - F_n(x)) 1{x poor};
    B(x) = (1/n) sum of q(X_k) over X_k >= x with q(x) = -2 x 1{x poor} / mu,
    the suffix sum of q over the sorted sample (tied values share one B).
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    x = values[order]
    n = x.size
    mu = float(x.mean())
    poor = x <= line
    h = x * (1.0 - np.searchsorted(x, x, side="right") / n) * poor
    g = 2.0 * (float(h.mean()) * x / mu ** 2 - h / mu)
    q = -2.0 * x * poor / mu
    suffix = np.cumsum(q[::-1])[::-1]
    b = suffix[np.searchsorted(x, x, side="left")] / n
    g_out, b_out = np.empty(n), np.empty(n)
    g_out[order], b_out[order] = g, b
    return g_out, b_out


def variance_components(values: np.ndarray, line: float) -> dict:
    """sigma1^2 = Var g, sigma2^2 = Var B, sigma12 = -Cov(g, B), total = Var phi."""
    g, b = influence(values, line)
    gc, bc = g - g.mean(), b - b.mean()
    s1, s2, s12 = float(np.mean(gc * gc)), float(np.mean(bc * bc)), -float(np.mean(gc * bc))
    return {"sigma1_sq": s1, "sigma2_sq": s2, "sigma12": s12, "variance": s1 + s2 + 2.0 * s12}


def gap_influence(values: np.ndarray, groups: np.ndarray, line: float) -> np.ndarray:
    """psi(x) = phi_pool(x) - phi_h(x) - (T_h - sum_i p_i T_i) for x in group h.

    The mean of psi^2 estimates theta1^2 + theta2^2, the variance of
    sqrt(n) (gd_n - gd)."""
    g, b = influence(values, line)
    psi = g - (b - b.mean())
    local = {}
    for h in np.unique(groups):
        member = groups == h
        g_h, b_h = influence(values[member], line)
        psi[member] -= g_h - (b_h - b_h.mean())
        local[h] = (l_statistic(values[member], line), float(member.mean()))
    weighted = sum(t * p for t, p in local.values())
    for h, (t, _) in local.items():
        psi[groups == h] -= t - weighted
    return psi


def _half_width_problem(report: dict, lo: str, hi: str, variance: float,
                        n: int) -> list[str]:
    z = NormalDist().inv_cdf(0.5 * (1.0 + report["level"]))
    expected = z * math.sqrt(max(variance, 0.0) / n)
    half = 0.5 * (report[hi] - report[lo])
    if not _close(half, expected, 1e-9):
        return [f"CI half-width {half!r} != z sqrt(variance / n) = {expected!r}"]
    return []


def check_index(report: dict, values: np.ndarray, line: float) -> list[str]:
    """`takayama index --format json` against the benchmark's own T_n and
    influence-vector variance on the same adult-equivalent incomes."""
    problems = []
    n = values.size
    if report.get("sample_size") != n:
        problems.append(f"sample_size {report.get('sample_size')} != {n}")
    t_n = l_statistic(values, line)
    if not _close(report["index"], t_n, 1e-12):
        problems.append(f"index {report['index']!r} != T_n {t_n!r}")
    ref = variance_components(values, line)
    tol = RANK_TOL * (ref["sigma1_sq"] + ref["sigma2_sq"]) / n
    for key in ("sigma1_sq", "sigma2_sq", "sigma12", "variance"):
        if abs(report[key] - ref[key]) > tol:
            problems.append(f"{key} {report[key]!r} != influence value {ref[key]!r} "
                            f"(tolerance {tol:.3g})")
    problems += _half_width_problem(report, "ci_lower", "ci_upper", report["variance"], n)
    if not _close(0.5 * (report["ci_lower"] + report["ci_upper"]), report["index"], 1e-12):
        problems.append("CI is not centred on the index")
    return problems


def check_decompose(report: dict, values: np.ndarray, labels: np.ndarray,
                    line: float) -> list[str]:
    """`takayama decompose --format json` against per-label T_n, the gap
    arithmetic, and the influence-vector theta1^2 + theta2^2."""
    problems = []
    n = values.size
    groups = {g["label"]: g for g in report["groups"]}
    expected_labels = sorted(set(labels.tolist()))
    if sorted(groups) != expected_labels:
        problems.append(f"group labels {sorted(groups)} != {expected_labels}")
        return problems
    if report["sample_size"] != n or sum(g["size"] for g in groups.values()) != n:
        problems.append("group sizes do not sum to the sample size")
    t_global = l_statistic(values, line)
    if not _close(report["global_index"], t_global, 1e-12):
        problems.append(f"global index {report['global_index']!r} != T_n {t_global!r}")
    for label, grp in groups.items():
        member = labels == label
        if grp["size"] != int(member.sum()):
            problems.append(f"group {label}: size {grp['size']} != {int(member.sum())}")
            continue
        t_local = l_statistic(values[member], line)
        if not _close(grp["index"], t_local, 1e-12):
            problems.append(f"group {label}: index {grp['index']!r} != T_n {t_local!r}")
    weighted = math.fsum(g["size"] / n * g["index"] for g in groups.values())
    if abs(report["gap"] - (report["global_index"] - weighted)) > 1e-12:
        problems.append(f"gap {report['gap']!r} != global - sum (n_i/n) T_i "
                        f"= {report['global_index'] - weighted!r}")
    for key in ("theta1_sq", "theta2_sq", "theta3_sq"):
        if not report[key] >= 0.0:
            problems.append(f"{key} = {report[key]!r} is negative")
    if abs(report["gap_variance"] - (report["theta1_sq"] + report["theta2_sq"])) > 1e-12:
        problems.append("gap_variance != theta1^2 + theta2^2")
    psi = gap_influence(values, labels, line)
    ref = float(np.mean(psi * psi))
    tol = RANK_TOL * len(groups) * ref / n
    if abs(report["gap_variance"] - ref) > tol:
        problems.append(f"gap_variance {report['gap_variance']!r} != influence value "
                        f"{ref!r} (tolerance {tol:.3g})")
    problems += _half_width_problem(report, "gap_ci_lower", "gap_ci_upper",
                                    report["gap_variance"], n)
    return problems


def mixture_truth(components: list[tuple[str, float]], line: float) -> float:
    """Population Takayama index of a mixture of exponential and lognormal
    laws, T = 1 - (2 / mu) * integral over [0, Z] of x (1 - F(x)) f(x) dx,
    by quadrature in income space against the mixture density."""
    def law(spec: str):
        family, _, args = spec.partition(":")
        p = [float(a) for a in args.split(",")]
        if family == "exponential":
            rate = p[0]
            return (lambda x: -math.expm1(-rate * x), lambda x: rate * math.exp(-rate * x),
                    1.0 / rate)
        if family == "lognormal":
            m, s = p
            return (lambda x: float(ndtr((math.log(x) - m) / s)) if x > 0 else 0.0,
                    lambda x: (math.exp(-0.5 * ((math.log(x) - m) / s) ** 2)
                               / (x * s * math.sqrt(2.0 * math.pi))) if x > 0 else 0.0,
                    math.exp(m + 0.5 * s * s))
        raise ValueError(f"no reference law for {spec!r}")

    laws = [(law(spec), w) for spec, w in components]
    mean = math.fsum(w * m for (_, _, m), w in laws)

    def integrand(x: float) -> float:
        cdf = math.fsum(w * F(x) for (F, _, _), w in laws)
        pdf = math.fsum(w * f(x) for (_, f, _), w in laws)
        return x * (1.0 - cdf) * pdf

    value, _ = quad(integrand, 0.0, line, epsabs=1e-14, epsrel=1e-13, limit=500)
    return 1.0 - 2.0 * value / mean


def check_simulation(report: dict, truth: float, n: int, replicates: int) -> list[str]:
    """`takayama simulate --format json`: truth, coverage, bias, and the
    per-replicate records against one another."""
    problems = []
    if abs(report["truth"] - truth) > 1e-8:
        problems.append(f"truth {report['truth']!r} != quadrature value {truth!r}")
    values = np.asarray(report["values"], dtype=float)
    variances = np.asarray(report["variances"], dtype=float)
    hits = np.asarray(report["ci_hits"], dtype=bool)
    if values.size != replicates or report["replicates"] != replicates:
        problems.append(f"{values.size} replicate values, expected {replicates}")
        return problems
    if report["degenerate_count"] != 0 or any(report["degenerate"]):
        problems.append(f"{report['degenerate_count']} degenerate replicates")
    if not np.all(np.isfinite(values)) or not np.all(variances > 0):
        problems.append("a replicate has a non-finite value or a non-positive variance")
        return problems
    coverage = float(hits.mean())
    if not _close(report["coverage"], coverage, 1e-12):
        problems.append(f"coverage {report['coverage']!r} != share of CI hits {coverage!r}")
    binomial_se = math.sqrt(0.95 * 0.05 / replicates)
    if abs(report["coverage"] - 0.95) > MC_SE * binomial_se:
        problems.append(f"coverage {report['coverage']!r} is more than {MC_SE:g} binomial "
                        f"standard errors ({binomial_se:.4f}) from 0.95")
    mean = float(values.mean())
    if not _close(report["mean_statistic"], mean, 1e-12):
        problems.append(f"mean_statistic {report['mean_statistic']!r} != mean of values {mean!r}")
    mc_se = float(values.std(ddof=1)) / math.sqrt(replicates)
    if abs(report["mean_statistic"] - truth) > MC_SE * mc_se:
        problems.append(f"mean statistic {report['mean_statistic']!r} is more than "
                        f"{MC_SE:g} Monte Carlo standard errors ({mc_se:.3g}) from {truth!r}")
    z = NormalDist().inv_cdf(0.5 * (1.0 + report["level"]))
    margin = np.abs(values - truth) - z * np.sqrt(variances / n)
    decided = np.abs(margin) > 1e-12
    if np.any(hits[decided] != (margin[decided] <= 0.0)):
        problems.append("a replicate's CI hit flag disagrees with its value and variance")
    scaled = math.sqrt(n) * (values - truth)
    if not _close(report["scaled_variance"], float(scaled.var(ddof=1)), 1e-9):
        problems.append("scaled_variance != variance of sqrt(n) (value - truth)")
    return problems


def draw_population_sample(components: list[tuple[str, float]], size: int,
                           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage draw from the mixture with numpy's own generators: a
    component per observation by weight, then a value from that law."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(5,)))
    weights = np.array([w for _, w in components])
    labels = rng.choice(len(components), size=size, p=weights / weights.sum())
    values = np.empty(size)
    for k, (spec, _) in enumerate(components):
        member = labels == k
        family, _, args = spec.partition(":")
        p = [float(a) for a in args.split(",")]
        count = int(member.sum())
        if family == "uniform":
            values[member] = rng.uniform(p[0], p[1], count)
        elif family == "exponential":
            values[member] = rng.exponential(1.0 / p[0], count)
        elif family == "lognormal":
            values[member] = rng.lognormal(p[0], p[1], count)
        else:
            raise ValueError(f"no sampler for {spec!r}")
    return values, labels


def population_estimates(values: np.ndarray, labels: np.ndarray, line: float) -> dict:
    """Sample analogues of the population study's outputs."""
    out = variance_components(values, line)
    out["index"] = l_statistic(values, line)
    weighted = 0.0
    for h in np.unique(labels):
        member = labels == h
        weighted += float(member.mean()) * l_statistic(values[member], line)
    out["gap"] = out["index"] - weighted
    psi = gap_influence(values, labels, line)
    out["gap_variance"] = float(np.mean(psi * psi))
    return out


POPULATION_KEYS = ("index", "sigma1_sq", "sigma2_sq", "sigma12", "variance", "gap",
                   "gap_variance")


def check_population(report: dict, estimates: dict) -> list[str]:
    """Population study output against one large sample from the mixture;
    `estimates` comes from population_reference."""
    problems = []
    for key in POPULATION_KEYS:
        value, se = estimates[key]
        if abs(report[key] - value) > POPULATION_SE * se:
            problems.append(f"{key} {report[key]!r} is more than {POPULATION_SE:g} standard "
                            f"errors ({se:.3g}) from the sample value {value!r}")
    if abs(report["variance"] - (report["sigma1_sq"] + report["sigma2_sq"]
                                 + 2.0 * report["sigma12"])) > 1e-12:
        problems.append("variance != sigma1^2 + sigma2^2 + 2 sigma12")
    if abs(report["gap"] - (report["global_index"] - float(np.dot(
            report["weights"], report["local_indices"])))) > 1e-12:
        problems.append("gap != global - sum p_i T_i")
    for key in ("theta1_sq", "theta2_sq", "theta3_sq"):
        if not report[key] >= 0.0:
            problems.append(f"{key} = {report[key]!r} is negative")
    return problems


def population_reference(values: np.ndarray, labels: np.ndarray, line: float) -> dict:
    """{key: (full-sample value, standard error)}; the error is the spread
    of the estimate over disjoint batches divided by sqrt(batches)."""
    full = population_estimates(values, labels, line)
    batches = [population_estimates(v, l, line) for v, l in
               zip(np.array_split(values, POPULATION_BATCHES),
                   np.array_split(labels, POPULATION_BATCHES))]
    return {key: (full[key], float(np.std([b[key] for b in batches], ddof=1))
                  / math.sqrt(POPULATION_BATCHES)) for key in POPULATION_KEYS}
