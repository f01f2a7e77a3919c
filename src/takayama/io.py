"""CSV ingestion of survey microdata and report emission.

One fixed CSV dialect: comma-separated, UTF-8 (a leading byte-order mark
is skipped), mandatory header row, '.' decimal separator.  Fields may be
quoted with '"' (holding commas, doubled quotes or line breaks);
whitespace around a value is ignored; blank lines are skipped and do not
count as rows; no line is a comment.  Ingest parses the needed columns in
one np.loadtxt pass and validates them with array masks.  Reports
serialize deterministically to text (indices as percentages, two
decimals), JSON (full precision), or tidy CSV (one row per group /
replicate).
"""
from __future__ import annotations

import csv
import io as _io
import json
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, get_args, get_type_hints

import numpy as np

from .errors import DataFormatError
from .quadrature import QuadratureSettings
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
    threads: int = 1

    def __post_init__(self):
        # PovertyConfig, QuadratureSettings and ReplicateStudy check the
        # other numbers; nothing else checks threads.
        if self.threads < 1:
            raise DataFormatError(f"threads must be >= 1, got {self.threads}")

    def poverty(self) -> PovertyConfig:
        if self.poverty_line is None:
            raise DataFormatError("a poverty line is required")
        return PovertyConfig(self.poverty_line, self.confidence_level,
                             self.strict_comparison, QuadratureSettings(abs_tol=self.quad_tol))

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

        names = [config.income_column, config.group_column, equiv_column]
        # A repeated header name maps to its last column, as in a dict row.
        usecols = [len(header) - 1 - header[::-1].index(name)
                   for name in names if name is not None]
        try:
            columns = _read_columns(handle, usecols)
        except csv.Error as exc:
            raise DataFormatError(f"{path}: unreadable CSV row ({exc})") from exc

    if columns.shape[0] == 0:
        raise DataFormatError(f"{path}: no data rows")
    # (row index, check order, message) per check; the least one is raised.
    # Entries that fail to parse read as NaN, so at that row the range
    # check also fires, and its later check order lets the parse error win.
    errors = []
    incomes, bad = _parse_floats(columns[:, 0])
    errors.append((bad, 0, "income not numeric"))
    errors.append((_first(~np.isfinite(incomes) | (incomes < 0)), 1,
                   "income must be a non-negative number"))
    labels = divisors = None
    at = 1  # next column of `columns`
    if config.group_column is not None:
        labels = np.array([label.strip() for label in columns[:, at].tolist()],
                          dtype=object)
        errors.append((_first(labels == ""), 2, "empty group label"))
        at += 1
    if equiv_column is not None:
        divisors, bad = _parse_floats(columns[:, at])
        errors.append((bad, 3, f"{equiv_column} not numeric"))
        errors.append((_first(~np.isfinite(divisors) | (divisors <= 0)), 4,
                       f"{equiv_column} must be positive"))
    row, _, message = min(errors)
    if row < columns.shape[0]:
        raise DataFormatError(f"row {row + 1}: {message}")
    return IncomeSample(incomes, group_labels=labels, equivalence_divisors=divisors)


def _read_columns(handle, usecols: Sequence[int]) -> np.ndarray:
    """The data rows' fields at usecols, as an (rows, len(usecols)) array of
    Python strings.  Blank lines are skipped; quoted fields may hold commas,
    quotes and newlines; no line is a comment.

    Object dtype, not '<U': loadtxt collects Python strings either way, and
    sizing them into '<U' (then parsing that) took twice as long.
    """
    with warnings.catch_warnings():
        # numpy warns about blank lines and about a file with no data rows.
        warnings.filterwarnings("ignore", message=".*contained no data",
                                category=UserWarning)
        try:
            return np.loadtxt(handle, delimiter=",", quotechar='"', comments=None,
                              usecols=usecols, dtype=object, ndmin=2)
        except ValueError:
            pass
    # Some row lacks a needed field.  Pad short rows with empty fields, as a
    # dict row would, so the checks name the first bad row.
    handle.seek(0)
    rows = csv.reader(handle)
    next(rows)
    padded = [[row[c] if c < len(row) else "" for c in usecols] for row in rows if row]
    return np.array(padded, dtype=object).reshape(len(padded), len(usecols))


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry, or len(mask) when there is none."""
    return int(np.argmax(mask)) if mask.any() else mask.size


def _parse_floats(column: np.ndarray) -> tuple[np.ndarray, int]:
    """Parse a column of strings with float(), which ignores surrounding
    whitespace; also return the index of the first entry that is not a
    number (len(column) when all are).  From that entry on, the values are
    NaN."""
    try:
        return column.astype(float), column.size
    except ValueError:
        pass
    values = np.full(column.size, np.nan)
    for index, text in enumerate(column.tolist()):
        try:
            values[index] = float(text)
        except ValueError:
            return values, index
    return values, column.size


# ---------------------------------------------------------------------------
# report emission


def _pct(value: float) -> str:
    return f"{100.0 * value:.2f}"


def _text_index(report: Mapping) -> str:
    lines = [
        "Takayama index report",
        f"observations: {report['sample_size']}",
        f"poverty line: {report['poverty_line']:g}",
        f"index (%): {_pct(report['index'])}",
        f"variance components: sigma1^2={report['sigma1_sq']:.6g} "
        f"sigma2^2={report['sigma2_sq']:.6g} sigma12={report['sigma12']:.6g}",
        f"total variance: {report['variance']:.6g}",
        f"{int(round(report['level'] * 100))}% CI: "
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
        f"{int(round(report['level'] * 100))}% gap CI: "
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
        f"coverage at {int(round(report['level'] * 100))}%: {report['coverage']:.4f}",
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


def emit_report(report: Mapping, format: str = TEXT) -> bytes:
    """Serialize a report mapping; deterministic for a given input."""
    if format not in _FORMATS:
        raise DataFormatError(f"unknown format {format!r}; expected one of {_FORMATS}")
    if format == JSON:
        return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")
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


def load_report(path: str) -> dict:
    """Read back a JSON report written by emit_report."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        raise DataFormatError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(report, dict) or "kind" not in report:
        raise DataFormatError(f"{path}: not a report file (missing 'kind')")
    return report
