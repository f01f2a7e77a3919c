#!/usr/bin/env python3
"""Benchmark of the takayama CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory.  Workloads (see perfbench/README.md for why each exists):

  survey_index      takayama index on a 200k-household survey CSV
  survey_decompose  takayama decompose --group-column region, 100k rows, 16 regions
  replicate_study   takayama simulate, 2000 replicates of n = 2000, one thread
  population_gap    library study of an analytic 3-component mixture

With --trace 0 the workload's operation runs in a fresh process, one at a
time from this single process, until S seconds have passed; each output is
checked against the benchmark's own computations.  The last line of
standard output is one JSON object: correct, attempted, failed and the
end-to-end metrics (medians over the operations of the run; setup_s is the
median of SETUP_IMPORTS cold imports).  An operation that exits non-zero
counts as failed, makes the run incorrect and is left out of the metrics.

With --trace 1 one traced pass runs every workload's operation, plus a
gap-variance sweep over K = 2/8/32 groups, each in a fresh process with the
package's public functions timed from outside (perfbench/trace_child.py).
Each per-layer metric comes from the workload that exercises its layer,
so the pass is the same whatever the workload name.  Spans are written to
perfbench/_work/traces/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
import trace_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "takayama"
WORK = HERE / "_work"
OP_TIMEOUT_S = 150.0
SETUP_IMPORTS = 5
CLI = "import sys; from takayama.cli import main; sys.argv[0] = 'takayama'; main()"
WORKLOADS = ("survey_index", "survey_decompose", "replicate_study", "population_gap")


@dataclass
class Plan:
    """One workload's operation, as a command line and as a traced call."""
    command: list[str]
    traced: list[str]
    check: Callable[[dict], list[str]]


@dataclass
class Measured:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stdout_path: str) -> Measured:
    """Spawn argv, wait for it, and read its own wall, CPU and peak RSS."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=child_env(), cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Measured(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)


def survey_plan(kind: str, seed: int, work: Path) -> Plan:
    path = str(work / f"{kind}.csv")
    rows = inputs.INDEX_ROWS if kind == "index" else inputs.DECOMPOSE_ROWS
    values, labels = inputs.write_survey_csv(path, seed, rows)
    args = [kind, "--input", path, "--poverty-line", f"{inputs.POVERTY_LINE:g}",
            "--format", "json"]
    if kind == "index":
        check = lambda report: checks.check_index(report, values, inputs.POVERTY_LINE)
    else:
        args += ["--group-column", "region"]
        check = lambda report: checks.check_decompose(report, values, labels,
                                                      inputs.POVERTY_LINE)
    return Plan([sys.executable, "-c", CLI, *args], ["cli", *args], check)


def replicate_plan(seed: int, work: Path) -> Plan:
    args = ["simulate"]
    for spec in inputs.SIMULATE_MODELS:
        args += ["--model", spec]
    args += ["--weights", inputs.SIMULATE_WEIGHTS, "--z", f"{inputs.SIMULATE_LINE:g}",
             "--n", str(inputs.SIMULATE_N), "--reps", str(inputs.SIMULATE_REPS),
             "--seed", str(seed), "--target", "takayama", "--format", "json"]
    weights = [float(w) for w in inputs.SIMULATE_WEIGHTS.split(",")]
    truth = checks.mixture_truth(list(zip(inputs.SIMULATE_MODELS, weights)),
                                 inputs.SIMULATE_LINE)
    check = lambda report: checks.check_simulation(report, truth, inputs.SIMULATE_N,
                                                   inputs.SIMULATE_REPS)
    return Plan([sys.executable, "-c", CLI, *args], ["cli", *args], check)


def population_plan(seed: int, work: Path) -> Plan:
    args = ["--z", f"{inputs.POPULATION_LINE:g}"]
    for spec, weight in inputs.POPULATION_COMPONENTS:
        args += ["--component", f"{spec}={weight!r}"]
    reference = {}

    def check(report: dict) -> list[str]:
        if not reference:
            values, labels = checks.draw_population_sample(
                list(inputs.POPULATION_COMPONENTS), inputs.POPULATION_CHECK_SIZE, seed)
            reference["estimates"] = checks.population_reference(
                values, labels, inputs.POPULATION_LINE)
        return checks.check_population(report, reference["estimates"])

    return Plan([sys.executable, str(HERE / "population_study.py"), *args],
                ["population", *args], check)


PLANS = {
    "survey_index": lambda seed, work: survey_plan("index", seed, work),
    "survey_decompose": lambda seed, work: survey_plan("decompose", seed, work),
    "replicate_study": replicate_plan,
    "population_gap": population_plan,
}


class Outcome:
    """Operation counts, the distinct reports to check, and the problems
    found in them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._reports: dict[bytes, tuple[str, Callable[[dict], list[str]]]] = {}

    def record(self, name: str, measured: Measured, stdout_path: str,
               check: Callable[[dict], list[str]] | None) -> bool:
        self.attempted += 1
        if measured.returncode != 0:
            self.failed += 1
            self.problems.append(f"{name}: exit code {measured.returncode}")
            return False
        if check is not None:
            with open(stdout_path, "rb") as handle:
                self._reports.setdefault(handle.read(), (name, check))
        return True

    def check_reports(self) -> None:
        """Check each distinct report once, after the timed operations, so
        that no checking runs beside a timed process."""
        for payload, (name, check) in self._reports.items():
            try:
                found = check(json.loads(payload))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                found = [f"unreadable report: {exc!r}"]
            self.problems += [f"{name}: {p}" for p in found]
        self._reports.clear()


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple[Outcome, dict]:
    outcome = Outcome()
    imports = [run_child([sys.executable, "-c", "import takayama.cli"], os.devnull)
               for _ in range(SETUP_IMPORTS)]
    imports = [m for m in imports if outcome.record("import", m, os.devnull, None)]
    plan = PLANS[workload](seed, work)
    output = str(work / "report.json")
    runs, attempts = [], 0
    start = time.perf_counter()
    while not attempts or time.perf_counter() - start < seconds:
        attempts += 1
        measured = run_child(plan.command, output)
        if outcome.record(workload, measured, output, plan.check):
            runs.append(measured)
    outcome.check_reports()
    print(f"{workload}: wall_s of each operation: "
          + " ".join(f"{m.wall_s:.3f}" for m in runs), file=sys.stderr)
    metrics = {}
    if runs:
        metrics["wall_s"] = (statistics.median(m.wall_s for m in runs), "s")
        metrics["cpu_s"] = (statistics.median(m.cpu_s for m in runs), "s")
        metrics["peak_rss_mb"] = (statistics.median(m.peak_rss_mb for m in runs), "MB")
    if imports:
        metrics["setup_s"] = (statistics.median(m.wall_s for m in imports), "s")
    return outcome, metrics


# ---------------------------------------------------------------------------
# traced run


def span_total(trace: dict, name: str, **counts) -> float:
    """Summed duration of the spans called `name` (outermost ones only, so
    recursion is not counted twice) whose counts match."""
    spans = trace["spans"]
    total = 0.0
    for span in spans:
        if span[0] != name or any((span[4] or {}).get(k) != v for k, v in counts.items()):
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            total += span[2] - span[1]
    return total


def layer_metrics(traces: dict) -> dict:
    index, decompose = traces["survey_index"], traces["survey_decompose"]
    study, population, sweep = (traces["replicate_study"], traces["population_gap"],
                                traces["sweep"])
    ingest = span_total(index, "io.ingest_csv")
    rows = sum(s[4]["rows"] for s in index["spans"] if s[0] == "io.ingest_csv")
    plugin = span_total(study, "asymptotics.sigma_plugin")
    metrics = {
        "import.s": statistics.median(span_total(t, "import") for t in traces.values()),
        "io.ingest_csv.s": ingest,
        "io.ingest_csv.rows_per_s": rows / ingest,
        "io.emit_report.s": span_total(study, "io.emit_report"),
        "samples.build_empirical.s": span_total(index, "samples.build_empirical"),
        "indices.takayama_empirical.s": span_total(index, "indices.takayama_empirical"),
        "asymptotics.sigma_plugin.s": plugin,
        "asymptotics.sigma_plugin.per_sort": plugin / span_total(study, "samples.build_empirical"),
        "decomposition.partition.s": span_total(decompose, "decomposition.partition"),
        "decomposition.decomposability_gap.s": span_total(decompose,
                                                          "decomposition.decomposability_gap"),
        "decomposition.gap_variance.s": span_total(decompose, "decomposition.gap_variance"),
        "montecarlo.population_truth.s": span_total(study, "montecarlo.population_truth"),
        "montecarlo.run_replicates.s": span_total(study, "montecarlo.run_replicates"),
        "montecarlo.draw_mixture_sample.s": span_total(study, "montecarlo.draw_mixture_sample"),
        "montecarlo.ks_normality.s": span_total(study, "montecarlo.ks_normality"),
        "indices.takayama_population.s": span_total(population, "indices.takayama_population"),
        "asymptotics.sigma_analytic.s": span_total(population, "asymptotics.sigma_analytic"),
        "decomposition.gap_variance.analytic.s": span_total(population,
                                                            "decomposition.gap_variance"),
        "distributions.quantile.calls": population["calls"].get("distributions.quantile", 0),
        "distributions.cdf.calls": population["calls"].get("distributions.cdf", 0),
    }
    for k in trace_child.SWEEP_GROUPS:
        metrics[f"decomposition.gap_variance.k{k}.s"] = span_total(
            sweep, "decomposition.gap_variance", K=k)
    return metrics


LAYER_UNITS = {"rows_per_s": "1/s", "per_sort": "ratio", "calls": "count"}


def traced(workload: str, seed: int, seconds: float, work: Path) -> tuple[Outcome, dict]:
    """One traced pass; it takes longer than run_seconds, so it is not repeated."""
    plans = {name: PLANS[name](seed, work) for name in WORKLOADS}
    operations = {name: (plan.traced, plan.check) for name, plan in plans.items()}
    operations["sweep"] = (["sweep", str(seed)], None)
    outcome = Outcome()
    traces = {}
    for name, (args, check) in operations.items():
        trace_file = str(work / f"{name}.trace.json")
        output = str(work / f"{name}.out")
        measured = run_child([sys.executable, str(HERE / "trace_child.py"),
                              trace_file, *args], output)
        if not outcome.record(name, measured, output, check):
            return outcome, {}
        with open(trace_file, "r", encoding="utf-8") as handle:
            traces[name] = json.load(handle)
    outcome.check_reports()
    traces_dir = WORK / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    with open(traces_dir / f"{workload}-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump(traces, handle)
    return outcome, {name: (value, LAYER_UNITS.get(name.rsplit(".", 1)[1], "s"))
                     for name, value in layer_metrics(traces).items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SOURCE / "cli.py").is_file():
        print(f"no takayama sources under {SOURCE.parent}; run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        run = traced if args.trace else end_to_end
        outcome, metrics = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
