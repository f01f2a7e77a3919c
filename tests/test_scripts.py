"""The study scripts and the benchmark's traced operations run end to end
at tiny sizes."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import takayama
from takayama.io import RunConfig, ingest_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

RUNS = {
    "coverage_study.py": ["--model", "uniform:0,1", "--model", "lognormal:0,0.8",
                          "--z", "1", "--sizes", "60,120", "--reps", "20", "--seed", "2"],
    "gap_study.py": ["--model", "exponential:1", "--model", "uniform:0,2",
                     "--weights", "0.6,0.4", "--z", "1", "--n", "200", "--reps", "10",
                     "--seed", "3"],
    "representation_decay.py": ["--model", "lognormal:0,0.8", "--z", "1",
                                "--sizes", "50,100", "--reps", "5", "--seed", "4"],
}


def _source_env():
    """The environment with this takayama package first on PYTHONPATH."""
    source = os.path.dirname(os.path.dirname(takayama.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *RUNS[script]],
                          env=_source_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


PERFBENCH = SCRIPTS.parent / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_operations():
    inputs = _perfbench_module("inputs")
    simulate = ["cli", "simulate"]
    for spec in inputs.SIMULATE_MODELS:
        simulate += ["--model", spec]
    simulate += ["--weights", inputs.SIMULATE_WEIGHTS, "--z", f"{inputs.SIMULATE_LINE:g}",
                 "--n", "200", "--reps", "100", "--seed", "1", "--format", "json"]
    population = ["population", "--z", f"{inputs.POPULATION_LINE:g}"]
    for spec, weight in inputs.POPULATION_COMPONENTS:
        population += ["--component", f"{spec}={weight!r}"]
    return {"simulate": simulate, "sweep": ["sweep", "1"], "population": population}


@pytest.mark.parametrize("operation", ["simulate", "sweep", "population"])
def test_benchmark_trace_reads_the_library(operation, tmp_path):
    """perfbench/trace_child.py runs each kind of benchmark operation, and
    the spans and report keys that perfbench/run.py reads are there."""
    trace_file = tmp_path / "trace.json"
    done = subprocess.run([sys.executable, str(PERFBENCH / "trace_child.py"), str(trace_file),
                           *_benchmark_operations()[operation]],
                          env=_source_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    spans = json.loads(trace_file.read_text(encoding="utf-8"))["spans"]
    names = {span[0] for span in spans}
    if operation == "simulate":
        # run.py divides asymptotics.sigma_plugin by this span.
        assert "samples.build_empirical" in names
    elif operation == "sweep":
        groups = {span[4]["K"] for span in spans if span[0] == "decomposition.gap_variance"}
        assert groups == set(_perfbench_module("trace_child").SWEEP_GROUPS) == {2, 8, 32}
    else:
        report = json.loads(done.stdout)
        assert set(report) == {"index", "sigma1_sq", "sigma2_sq", "sigma12", "variance",
                               "global_index", "local_indices", "weights", "gap",
                               "theta1_sq", "theta2_sq", "theta3_sq", "gap_variance"}
        assert "decomposition.gap_variance" in names


def test_benchmark_survey_files_take_the_typed_ingest_pass(tmp_path, monkeypatch):
    """The survey CSVs of the benchmark hold no value that sends ingest to
    its row-by-row re-read, for index (no group column) and decompose."""
    def refuse(handle, fields):
        raise AssertionError("a benchmark survey file was re-read row by row")

    monkeypatch.setattr(takayama.io, "_read_rows", refuse)
    path = str(tmp_path / "survey.csv")
    scaled, labels = _perfbench_module("inputs").write_survey_csv(path, seed=1, n=3000)
    for config in (RunConfig(), RunConfig(group_column="region")):
        sample = ingest_csv(path, config)
        assert sample.scaled_values().tolist() == scaled.tolist()
    assert sample.group_labels.tolist() == labels.tolist()
