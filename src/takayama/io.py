"""CSV ingestion of survey microdata and report emission.

One fixed CSV dialect: comma-separated, UTF-8 (a leading byte-order mark
is skipped), mandatory header row, '.' decimal separator.  Fields may be
quoted with '"' (holding commas, doubled quotes or line breaks);
whitespace around a value is ignored; blank lines are skipped and do not
count as rows; no line is a comment; numbers are read as Python's float()
reads them.  Ingest reads the needed columns in one typed np.loadtxt pass.
When that pass fails, one row-by-row re-read names the first bad row, or
keeps the numbers float() takes and numpy refuses (such as 1_000).  Reports
serialize deterministically to text (indices as percentages, two
decimals), strict JSON (full precision; an undefined value is null), or
tidy CSV (one row per group / replicate).
"""
from __future__ import annotations

import csv
import io as _io
import json
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, get_args, get_type_hints

import numpy as np

from .errors import DataFormatError
from .samples import IncomeSample, PovertyConfig

TEXT = "text"
JSON = "json"
CSV = "csv"
_FORMATS = (TEXT, JSON, CSV)


@dataclass(frozen=True)
class RunConfig:
    """Command-level configuration, merged from flags and a JSON config file."""
    poverty_line: Optional[float] = None
    confidence_level: float = 0.95
    strict_comparison: bool = False
    income_column: str = "income"
    group_column: Optional[str] = None
    adult_equiv_column: Optional[str] = None
    quad_tol: float = 1e-8
    seed: int = 0
    sample_size: int = 2000
    replicates: int = 1000

    def poverty(self) -> PovertyConfig:
        """The run's PovertyConfig, with the default quadrature: quad_tol is
        read only by the commands that integrate (simulate)."""
        if self.poverty_line is None:
            raise DataFormatError("a poverty line is required")
        return PovertyConfig(self.poverty_line, self.confidence_level,
                             self.strict_comparison)

    @classmethod
    def merged(cls, file_values: Mapping, flag_values: Mapping) -> "RunConfig":
        """Config-file values, each of its field's type (an int passes for a
        float, a bool only for a bool), overridden by explicitly set flags."""
        hints = get_type_hints(cls)
        unknown = set(file_values) - set(hints)
        if unknown:
            raise DataFormatError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            kinds = get_args(hints[key]) or (hints[key],)
            if type(value) not in kinds + ((int,) if float in kinds else ()):
                names = " or ".join(kind.__name__ for kind in kinds if kind is not type(None))
                raise DataFormatError(f"config key {key!r} must be a {names}, got {value!r}")
        merged = dict(file_values)
        merged.update({k: v for k, v in flag_values.items() if v is not None})
        return cls(**merged)


def ingest_csv(path: str, config: RunConfig) -> IncomeSample:
    """Read survey rows into an IncomeSample.

    The income column is required.  Adult-equivalence divisors are applied
    when the (configurable) column is present; group labels are attached
    when config.group_column is set.  Errors carry the offending column
    name or 1-based data-row number; the first offending row is reported,
    and within a row income is checked before the label and the divisor.
    """
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    with handle:
        try:
            header = next(csv.reader(handle), None)
        except csv.Error as exc:
            raise DataFormatError(f"{path}: unreadable CSV header ({exc})") from exc
        if header is None:
            raise DataFormatError(f"{path}: empty file")

        if config.income_column not in header:
            raise DataFormatError(f"missing column: {config.income_column}")
        if config.group_column is not None and config.group_column not in header:
            raise DataFormatError(f"missing column: {config.group_column}")
        equiv_column = config.adult_equiv_column
        if equiv_column is not None and equiv_column not in header:
            raise DataFormatError(f"missing column: {equiv_column}")
        if equiv_column is None and "adult_equiv" in header:
            equiv_column = "adult_equiv"

        # (key, column index, name in messages) per needed column, in check order.
        # A repeated header name maps to its last column, as in a dict row.
        fields = [(key, len(header) - 1 - header[::-1].index(column), name)
                  for key, column, name in (("income", config.income_column, "income"),
                                            ("label", config.group_column, None),
                                            ("divisor", equiv_column, equiv_column))
                  if column is not None]
        try:
            sample = _read_typed(handle, fields)
        except ValueError:
            # Name the first bad row, or accept what float() reads and
            # numpy's parser does not (such as 1_000).
            try:
                sample = _read_rows(handle, fields)
            except csv.Error as exc:
                raise DataFormatError(f"{path}: unreadable CSV row ({exc})") from exc
    if sample.size == 0:
        raise DataFormatError(f"{path}: no data rows")
    return sample


def _read_typed(handle, fields) -> IncomeSample:
    """The data rows in one np.loadtxt pass: floats for income and divisor,
    Python strings for the label.  Blank lines are skipped; quoted fields
    may hold commas, quotes and newlines; no line is a comment.  Raises
    ValueError on a short row, a value numpy cannot parse or a broken rule."""
    with warnings.catch_warnings():
        # numpy warns about a file with no data rows.
        warnings.filterwarnings("ignore", message=".*contained no data",
                                category=UserWarning)
        rows = np.loadtxt(handle, delimiter=",", quotechar='"', comments=None,
                          usecols=[index for _, index, _ in fields], ndmin=1,
                          dtype=[(key, object if key == "label" else float)
                                 for key, _, _ in fields])
    labels = None
    if "label" in rows.dtype.names:
        labels = [label.strip() for label in rows["label"].tolist()]
        if not all(labels):
            raise ValueError("empty group label")
    divisors = rows["divisor"] if "divisor" in rows.dtype.names else None
    return IncomeSample(rows["income"], group_labels=labels, equivalence_divisors=divisors)


def _read_rows(handle, fields) -> IncomeSample:
    """Re-read the data rows one at a time, each needed field stripped and
    numbers read with float(): raise at the first row that breaks a rule,
    else return the sample.  A short row reads as empty fields."""
    handle.seek(0)
    rows = csv.reader(handle)
    next(rows)
    columns = {key: [] for key, _, _ in fields}
    for number, row in enumerate(filter(None, rows), start=1):
        for key, index, name in fields:
            text = row[index].strip() if index < len(row) else ""
            try:
                value = text if key == "label" else float(text)
            except ValueError:
                raise DataFormatError(f"row {number}: {name} not numeric") from None
            if key == "label" and not value:
                raise DataFormatError(f"row {number}: empty group label")
            if key == "income" and not 0 <= value < math.inf:
                raise DataFormatError(f"row {number}: income must be a non-negative number")
            if key == "divisor" and not 0 < value < math.inf:
                raise DataFormatError(f"row {number}: {name} must be positive")
            columns[key].append(value)
    return IncomeSample(columns["income"], group_labels=columns.get("label"),
                        equivalence_divisors=columns.get("divisor"))


# ---------------------------------------------------------------------------
# report emission


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}"


def _level(value: float) -> str:
    """A confidence level as a percentage, unrounded: 0.975 is 97.5%."""
    return f"{100 * value:g}%"


def _text_index(report: Mapping) -> str:
    lines = [
        "Takayama index report",
        f"observations: {report['sample_size']}",
        f"poverty line: {report['poverty_line']:g}",
        f"index (%): {_pct(report['index'])}",
        f"variance components: sigma1^2={report['sigma1_sq']:.6g} "
        f"sigma2^2={report['sigma2_sq']:.6g} sigma12={report['sigma12']:.6g}",
        f"total variance: {report['variance']:.6g}",
        f"{_level(report['level'])} CI: "
        f"[{report['ci_lower']:.6g}, {report['ci_upper']:.6g}]",
    ]
    return "\n".join(lines) + "\n"


def _text_decomposition(report: Mapping) -> str:
    width = max(len("group"), *(len(g["label"]) for g in report["groups"]))
    lines = [
        "Takayama decomposition report",
        f"poverty line: {report['poverty_line']:g}",
        f"{'group'.ljust(width)}  index(%)  size",
        f"{'global'.ljust(width)}  {_pct(report['global_index']).rjust(8)}  {report['sample_size']}",
    ]
    for g in report["groups"]:
        lines.append(f"{g['label'].ljust(width)}  {_pct(g['index']).rjust(8)}  {g['size']}")
    lines += [
        f"weighted local sum: {report['weighted_local_sum']:.4f}",
        f"gap: {report['gap']:.4f}",
        f"gap variance (theta1^2 + theta2^2): {report['gap_variance']:.6g}",
        f"{_level(report['level'])} gap CI: "
        f"[{report['gap_ci_lower']:.4f}, {report['gap_ci_upper']:.4f}]",
        f"recomposed global: {report['global_index']:.4f} in "
        f"[{report['recomposed_lower']:.4f}, {report['recomposed_upper']:.4f}]",
    ]
    return "\n".join(lines) + "\n"


def _text_simulation(report: Mapping) -> str:
    lines = [
        "Simulation report",
        f"model: {report['model']}",
        f"target: {report['target']}",
        f"population truth: {report['truth']:.6g}",
        f"replicates: {report['replicates']}  sample size: {report['sample_size']}  "
        f"seed: {report['seed']}",
        f"mean statistic: {report['mean_statistic']:.6g}",
        f"variance of sqrt(n) deviations: {report['scaled_variance']:.6g}",
        f"mean plug-in variance: {report['mean_plugin_variance']:.6g}",
        f"coverage at {_level(report['level'])}: {report['coverage']:.4f}",
        f"KS statistic: {report['ks_statistic']:.4f} "
        f"(critical {report['ks_critical']:.4f}, "
        f"{'pass' if report['ks_pass'] else 'fail'})",
        f"degenerate replicates: {report['degenerate_count']}",
    ]
    return "\n".join(lines) + "\n"


def _csv_rows(report: Mapping) -> list[dict]:
    kind = report["kind"]
    if kind == "index":
        keys = ("sample_size", "poverty_line", "index", "sigma1_sq", "sigma2_sq",
                "sigma12", "variance", "level", "ci_lower", "ci_upper")
        return [{k: report[k] for k in keys}]
    if kind == "decomposition":
        rows = []
        for g in report["groups"]:
            rows.append({"label": g["label"], "size": g["size"],
                         "weight": g["weight"], "index": g["index"]})
        rows.append({"label": "__global__", "size": report["sample_size"],
                     "weight": 1.0, "index": report["global_index"]})
        return rows
    if kind == "simulation":
        return [{"replicate": i, "value": v, "variance": s, "ci_hit": int(h),
                 "degenerate": int(d)}
                for i, (v, s, h, d) in enumerate(zip(
                    report["values"], report["variances"],
                    report["ci_hits"], report["degenerate"]))]
    raise DataFormatError(f"unknown report kind {kind!r}")


def _replace_leaves(value, test, new):
    """value with every leaf for which test holds replaced by new, through
    nested dicts and lists."""
    if isinstance(value, dict):
        return {key: _replace_leaves(item, test, new) for key, item in value.items()}
    if isinstance(value, list):
        return [_replace_leaves(item, test, new) for item in value]
    return new if test(value) else value


def emit_report(report: Mapping, format: str) -> bytes:
    """Serialize a report mapping; deterministic for a given input.

    JSON is strict (RFC 8259): a non-finite float is written as null.
    """
    if format not in _FORMATS:
        raise DataFormatError(f"unknown format {format!r}; expected one of {_FORMATS}")
    if format == JSON:
        strict = _replace_leaves(
            dict(report), lambda value: isinstance(value, float) and not math.isfinite(value),
            None)
        return (json.dumps(strict, sort_keys=True, indent=2, allow_nan=False)
                + "\n").encode("utf-8")
    if format == CSV:
        rows = _csv_rows(report)
        buffer = _io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue().encode("utf-8")
    kind = report["kind"]
    if kind == "index":
        return _text_index(report).encode("utf-8")
    if kind == "decomposition":
        return _text_decomposition(report).encode("utf-8")
    if kind == "simulation":
        return _text_simulation(report).encode("utf-8")
    raise DataFormatError(f"unknown report kind {kind!r}")


def read_json(path: str):
    """Parse a UTF-8 JSON file; a leading byte-order mark is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc


def load_report(path: str) -> dict:
    """Read back a JSON report written by emit_report; a null (a value
    emit_report found undefined) reads as NaN."""
    report = read_json(path)
    if not isinstance(report, dict) or "kind" not in report:
        raise DataFormatError(f"{path}: not a report file (missing 'kind')")
    return _replace_leaves(report, lambda value: value is None, math.nan)
