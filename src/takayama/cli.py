"""Command-line interface.

Subcommands: index (alias variance), decompose, simulate, report.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import Optional, Sequence

import numpy as np

from .asymptotics import confidence_interval, sigma_plugin
from .decomposition import decomposability_gap, gap_variance, partition, recompose_interval
from .distributions import parse_mixture
from .errors import DataFormatError, NumericalError
from .indices import takayama_empirical
from .io import (CSV, JSON, TEXT, RunConfig, emit_report, ingest_csv, load_report,
                 read_json)
from .montecarlo import ReplicateStudy, ks_normality, run_replicates
from .quadrature import QuadratureSettings
from .samples import build_empirical


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _add_run_options(parser: _Parser, *line_flags: str) -> None:
    parser.add_argument(*line_flags, type=float, dest="poverty_line")
    parser.add_argument("--confidence-level", type=float, dest="confidence_level")
    parser.add_argument("--strict", action="store_const", const=True, default=None,
                        dest="strict_comparison",
                        help="count only incomes strictly below the line as poor")
    parser.add_argument("--config", help="JSON config file; flags win on conflict")
    parser.add_argument("--format", choices=(TEXT, JSON, CSV), default=TEXT)
    parser.add_argument("--output", help="write the report here instead of stdout")


def _add_survey_options(parser: _Parser) -> None:
    parser.add_argument("--input", required=True, help="CSV file of survey rows")
    parser.add_argument("--income-column", dest="income_column")
    parser.add_argument("--adult-equiv-column", dest="adult_equiv_column")


def _build_parser() -> _Parser:
    parser = _Parser(prog="takayama", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", aliases=["variance"],
                             help="index, variance, and CI for one sample")
    _add_run_options(p_index, "--poverty-line")
    _add_survey_options(p_index)
    p_index.set_defaults(build=_index_report)

    p_dec = sub.add_parser("decompose", help="per-group indices and the gap")
    _add_run_options(p_dec, "--poverty-line")
    _add_survey_options(p_dec)
    p_dec.add_argument("--group-column", dest="group_column")
    p_dec.set_defaults(build=_decompose_report)

    p_sim = sub.add_parser("simulate", help="replicate study against a known model")
    _add_run_options(p_sim, "--poverty-line", "--z")
    p_sim.add_argument("--quad-tol", type=float, dest="quad_tol")
    p_sim.add_argument("--model", action="append", required=True,
                       help="family:params, e.g. uniform:0,1 (repeat for a mixture)")
    p_sim.add_argument("--weights", help="comma-separated mixture weights")
    p_sim.add_argument("--n", type=int, dest="sample_size")
    p_sim.add_argument("--reps", type=int, dest="replicates")
    p_sim.add_argument("--seed", type=int, dest="seed")
    p_sim.add_argument("--target", choices=("takayama", "gap"), default="takayama")
    p_sim.set_defaults(build=_simulate_report)

    p_rep = sub.add_parser("report", help="re-render a saved JSON report")
    p_rep.add_argument("--input", required=True)
    p_rep.add_argument("--format", choices=(TEXT, JSON, CSV), default=TEXT)
    p_rep.add_argument("--output")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    file_values = read_json(args.config) if args.config else {}
    if not isinstance(file_values, dict):
        raise DataFormatError(f"{args.config}: config must be a JSON object")
    flag_values = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return RunConfig.merged(file_values, flag_values)


def _emit(args: argparse.Namespace, report: dict) -> None:
    payload = emit_report(report, args.format)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))


def _index_report(args: argparse.Namespace, run: RunConfig) -> dict:
    config = run.poverty()
    sample = ingest_csv(args.input, replace(run, group_column=None))
    dist = build_empirical(sample)
    index = takayama_empirical(dist, config)
    decomp = sigma_plugin(dist, config)
    ci = confidence_interval(index.value, decomp.total, dist.size, config.confidence_level)
    return {
        "kind": "index",
        "sample_size": dist.size,
        "poverty_line": config.poverty_line,
        "index": index.value,
        "sigma1_sq": decomp.sigma1_sq,
        "sigma2_sq": decomp.sigma2_sq,
        "sigma12": decomp.sigma12,
        "variance": decomp.total,
        "level": config.confidence_level,
        "ci_lower": ci.lower,
        "ci_upper": ci.upper,
    }


def _decompose_report(args: argparse.Namespace, run: RunConfig) -> dict:
    if run.group_column is None:
        raise UsageError("decompose requires --group-column")
    config = run.poverty()
    sample = ingest_csv(args.input, run)
    part = partition(sample)
    estimate = decomposability_gap(part, config)
    variance = gap_variance(part, config)
    gap_ci = confidence_interval(estimate.gap, variance.gap_centered_total, part.pooled.size,
                                 config.confidence_level)
    recomposed = recompose_interval(estimate.weighted_local_sum, gap_ci)
    return {
        "kind": "decomposition",
        "sample_size": part.pooled.size,
        "poverty_line": config.poverty_line,
        "global_index": estimate.global_index,
        "groups": [
            {"label": grp.label, "size": grp.size, "weight": grp.weight,
             "index": estimate.local_indices[k]}
            for k, grp in enumerate(part.groups)
        ],
        "weighted_local_sum": estimate.weighted_local_sum,
        "gap": estimate.gap,
        "gap_variance": variance.gap_centered_total,
        "theta1_sq": variance.theta1_sq,
        "theta2_sq": variance.theta2_sq,
        "theta3_sq": variance.theta3_sq,
        "level": config.confidence_level,
        "gap_ci_lower": gap_ci.lower,
        "gap_ci_upper": gap_ci.upper,
        "recomposed_lower": recomposed.lower,
        "recomposed_upper": recomposed.upper,
    }


def _simulate_report(args: argparse.Namespace, run: RunConfig) -> dict:
    model = parse_mixture(args.model, args.weights)
    config = replace(run.poverty(), quadrature=QuadratureSettings(run.quad_tol))
    study = ReplicateStudy(model, run.sample_size, run.replicates, run.seed, config)
    records = run_replicates(study, target=args.target)
    deviations = records.scaled_deviations(run.sample_size)
    ks = (ks_normality(deviations) if deviations.size >= 100 else None)
    return {
        "kind": "simulation",
        "model": model.identifier,
        "target": records.target,
        "truth": records.truth,
        "replicates": run.replicates,
        "sample_size": run.sample_size,
        "seed": run.seed,
        "level": config.confidence_level,
        "mean_statistic": float(np.nanmean(records.values)),
        "scaled_variance": float(deviations.var(ddof=1)) if deviations.size > 1 else 0.0,
        "mean_plugin_variance": float(np.nanmean(records.variances)),
        "coverage": records.coverage(),
        "ks_statistic": ks.statistic if ks else float("nan"),
        "ks_critical": ks.critical_value if ks else float("nan"),
        "ks_pass": bool(ks.passed) if ks else False,
        "degenerate_count": int(records.degenerate.sum()),
        "values": [float(v) for v in records.values],
        "variances": [float(v) for v in records.variances],
        "ci_hits": [bool(h) for h in records.ci_hits],
        "degenerate": [bool(d) for d in records.degenerate],
    }


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
        if args.command == "report":
            report = load_report(args.input)
        else:
            report = args.build(args, _run_config(args))
        _emit(args, report)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
