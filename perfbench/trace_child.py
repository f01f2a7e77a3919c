"""One benchmark operation in a fresh process, with every public function
of the takayama modules timed from outside.

    python3 perfbench/trace_child.py TRACE_FILE cli ARGS...         # a CLI call
    python3 perfbench/trace_child.py TRACE_FILE population ARGS...  # population_study.py ARGS
    python3 perfbench/trace_child.py TRACE_FILE sweep SEED           # gap variance at K = 2/8/32

Before the operation runs, each public function of the layers below is
replaced, in every takayama module that holds a reference to it, by a
wrapper that records a span: name, start, end, parent span and counts
(rows, K, n, replicates).  For the population study the component laws'
cdf and quantile callables are wrapped where the benchmark hands them to
the public AnalyticDistribution constructor, which counts integrand
evaluations exactly.  The spans are kept in memory and written to
TRACE_FILE as JSON when the operation ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "io", "samples", "indices", "asymptotics", "decomposition",
          "montecarlo", "quadrature", "distributions", "normal")

SWEEP_ROWS = 10_000
SWEEP_GROUPS = (2, 8, 32)


def _partition_counts(args, result):
    return {"K": result.group_count, "n": result.pooled.size}


def _gap_variance_counts(args, result):
    part = args[0]
    counts = {"K": part.group_count}
    if part.is_empirical:
        counts["n"] = part.pooled.size
    return counts


COUNTERS = {
    "io.ingest_csv": lambda args, result: {"rows": result.size},
    "samples.build_empirical": lambda args, result: {"n": result.size},
    "decomposition.partition": _partition_counts,
    "decomposition.gap_variance": _gap_variance_counts,
    "montecarlo.run_replicates": lambda args, result: {
        "replicates": args[0].replicate_count, "n": args[0].sample_size},
}


class Tracer:
    """Spans as [name, start, end, parent index, counts], in call order."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, None])

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [name, start, end, parent, None]
            if counter is not None:
                self.spans[index][4] = counter(args, result)
            return result
        return traced

    def counted(self, name: str, fn):
        def call(x):
            self.calls[name] += 1
            return fn(x)
        return call

    def install(self) -> None:
        """Swap every public function of LAYERS for its traced wrapper."""
        package = importlib.import_module("takayama")
        modules = [importlib.import_module(f"takayama.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrapped[fn] = self.wrap(f"{layer}.{name}", fn)
        for module in (package, *modules):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, name, wrapped[value])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "calls": dict(self.calls)}, handle)


def run_cli(argv: list[str]) -> int:
    from takayama import cli
    return cli.cli_dispatch(argv)


def run_population(tracer: Tracer, argv: list[str]) -> int:
    from takayama import AnalyticDistribution, parse_distribution

    import population_study

    args = population_study.parse_args(argv)
    components = []
    for label, spec, weight in population_study.parse_components(args.component):
        law = parse_distribution(spec)
        law = AnalyticDistribution(tracer.counted("distributions.cdf", law.cdf),
                                   tracer.counted("distributions.quantile", law.quantile),
                                   law.mean, law.identifier, law.support, law.second_moment)
        components.append((label, law, weight))
    print(json.dumps(population_study.study(components, args.z), sort_keys=True))
    return 0


def run_sweep(seed: int) -> int:
    """Gap variance of one pooled survey sample relabelled into K groups."""
    import numpy as np
    from takayama import IncomeSample, PovertyConfig, gap_variance, partition

    import inputs

    _, cents, tenths = inputs.survey_rows(seed, SWEEP_ROWS)
    config = PovertyConfig(inputs.POVERTY_LINE)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    for k in SWEEP_GROUPS:
        labels = np.array([f"g{j}" for j in range(k)], dtype=object)[rng.integers(k, size=SWEEP_ROWS)]
        sample = IncomeSample(cents / 100.0, group_labels=labels,
                              equivalence_divisors=tenths / 10.0)
        gap_variance(partition(sample), config)
    return 0


def main() -> int:
    trace_file, kind, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    start = time.perf_counter()
    importlib.import_module("takayama.cli")
    tracer.record("import", start, time.perf_counter())
    tracer.install()
    try:
        if kind == "cli":
            return run_cli(rest)
        if kind == "population":
            return run_population(tracer, rest)
        if kind == "sweep":
            return run_sweep(int(rest[0]))
        raise SystemExit(f"unknown operation kind {kind!r}")
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
