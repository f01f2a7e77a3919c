"""Planted-error tests of the benchmark's output checks.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q

Each check must accept a report the program really wrote, and reject a
copy of it with one planted error.  The reports come from the CLI and the
library run in-process on small seeded inputs.
"""
from __future__ import annotations

import copy
import json
import math

import pytest

import checks
import inputs
import population_study

LINE = inputs.POVERTY_LINE
SIM_REPS = 1000
POPULATION = [("uniform:0,1", 0.3), ("exponential:1", 0.3), ("exponential:0.5", 0.4)]


def _cli_report(tmp_path, args: list[str]) -> dict:
    from takayama.cli import cli_dispatch
    out = tmp_path / "report.json"
    assert cli_dispatch([*args, "--format", "json", "--output", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def index_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("index")
    values, _ = inputs.write_survey_csv(str(tmp / "s.csv"), 11, 20_000)
    report = _cli_report(tmp, ["index", "--input", str(tmp / "s.csv"),
                               "--poverty-line", f"{LINE:g}"])
    return report, lambda r: checks.check_index(r, values, LINE)


@pytest.fixture(scope="module")
def decompose_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("decompose")
    values, labels = inputs.write_survey_csv(str(tmp / "s.csv"), 12, 20_000)
    report = _cli_report(tmp, ["decompose", "--input", str(tmp / "s.csv"),
                               "--poverty-line", f"{LINE:g}", "--group-column", "region"])
    return report, lambda r: checks.check_decompose(r, values, labels, LINE)


@pytest.fixture(scope="module")
def simulate_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("simulate")
    args = ["simulate", "--weights", inputs.SIMULATE_WEIGHTS, "--z", "1",
            "--n", str(inputs.SIMULATE_N), "--reps", str(SIM_REPS), "--seed", "13"]
    for spec in inputs.SIMULATE_MODELS:
        args += ["--model", spec]
    report = _cli_report(tmp, args)
    weights = [float(w) for w in inputs.SIMULATE_WEIGHTS.split(",")]
    truth = checks.mixture_truth(list(zip(inputs.SIMULATE_MODELS, weights)), 1.0)
    return report, lambda r: checks.check_simulation(r, truth, inputs.SIMULATE_N, SIM_REPS)


@pytest.fixture(scope="module")
def population_case():
    from takayama import parse_distribution
    report = json.loads(json.dumps(population_study.study(
        [(str(k), parse_distribution(spec), w) for k, (spec, w) in enumerate(POPULATION)],
        1.0)))
    values, labels = checks.draw_population_sample(POPULATION, 1_000_000, 14)
    estimates = checks.population_reference(values, labels, 1.0)
    return report, lambda r: checks.check_population(r, estimates)


CASES = ("index_case", "decompose_case", "simulate_case", "population_case")


@pytest.mark.parametrize("case", CASES)
def test_check_accepts_the_program_report(case, request):
    report, check = request.getfixturevalue(case)
    assert check(report) == []


def _scale_variance(r):
    r["variance"] *= 1.1


def _flip_sigma12(r):
    r["sigma12"] = -r["sigma12"]


def _shift_gap(r):
    r["gap"] += math.sqrt(r["gap_variance"] / r["sample_size"])


def _swap_group_index(r):
    r["groups"][0]["index"], r["groups"][1]["index"] = (r["groups"][1]["index"],
                                                        r["groups"][0]["index"])


def _coverage_090(r):
    r["coverage"] = 0.90


def _scale_sigma_components(r):
    """Variance scaled by 1.1 with sigma1^2 + sigma2^2 + 2 sigma12 kept equal
    to it, so only the comparison with the sample can reject it."""
    for key in ("sigma1_sq", "sigma2_sq", "sigma12", "variance"):
        r[key] *= 1.1


def _scale_theta_components(r):
    for key in ("theta1_sq", "theta2_sq", "gap_variance"):
        r[key] *= 1.1


PLANTED = [
    ("index_case", _scale_variance, "variance"),
    ("index_case", _flip_sigma12, "sigma12"),
    ("decompose_case", _shift_gap, "gap"),
    ("decompose_case", _swap_group_index, "index"),
    ("simulate_case", _coverage_090, "coverage"),
    ("population_case", _scale_variance, "variance"),
    ("population_case", _flip_sigma12, "sigma12"),
]


@pytest.mark.parametrize("case,plant,word", PLANTED,
                         ids=[f"{c.split('_')[0]}-{p.__name__.strip('_')}" for c, p, _ in PLANTED])
def test_check_rejects_a_planted_error(case, plant, word, request):
    report, check = request.getfixturevalue(case)
    broken = copy.deepcopy(report)
    plant(broken)
    problems = check(broken)
    assert problems, f"{plant.__name__} was not detected"
    assert any(word in p for p in problems), problems


@pytest.mark.parametrize("plant", [_scale_sigma_components, _scale_theta_components],
                         ids=["sigma-components", "theta-components"])
def test_population_check_rejects_by_the_sample_alone(plant, population_case):
    report, check = population_case
    broken = copy.deepcopy(report)
    plant(broken)
    problems = check(broken)
    assert problems, f"{plant.__name__} was not detected"
    assert all("standard errors" in p for p in problems), problems
