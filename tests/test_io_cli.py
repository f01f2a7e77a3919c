import csv
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import takayama
from takayama import DataFormatError
from takayama.cli import cli_dispatch
from takayama.io import CSV, JSON, TEXT, RunConfig, emit_report, ingest_csv

from _oracles import ingest_csv_rowwise_oracle


@pytest.fixture
def survey_csv(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text(
        "household_id,income,region,adult_equiv\n"
        "h1,10,north,2\n"
        "h2,6,south,3\n"
        "h3,4,north,1\n"
        "h4,9,south,2\n",
        encoding="utf-8")
    return str(path)


def test_ingest_plain_two_rows(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("income\n1\n3\n", encoding="utf-8")
    sample = ingest_csv(str(path), RunConfig())
    assert sample.values.tolist() == [1.0, 3.0]
    assert sample.group_labels is None
    assert sample.equivalence_divisors is None


def test_ingest_applies_adult_equivalence(survey_csv):
    sample = ingest_csv(survey_csv, RunConfig())
    assert sample.scaled_values().tolist() == [5.0, 2.0, 4.0, 4.5]


def test_ingest_attaches_groups(survey_csv):
    sample = ingest_csv(survey_csv, RunConfig(group_column="region"))
    assert sample.group_labels.tolist() == ["north", "south", "north", "south"]


def test_ingest_row_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("income\n1\nabc\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="row 2: income not numeric"):
        ingest_csv(str(path), RunConfig())
    path.write_text("income\n-3\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="row 1"):
        ingest_csv(str(path), RunConfig())
    path.write_text("income,adult_equiv\n3,0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="row 1: adult_equiv"):
        ingest_csv(str(path), RunConfig())


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("household_id,wage\nh1,3\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="missing column: income"):
        ingest_csv(str(path), RunConfig())
    path.write_text("income\n3\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="missing column: region"):
        ingest_csv(str(path), RunConfig(group_column="region"))


def test_ingest_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfincome,region\n1,a\n2,b\n")
    sample = ingest_csv(str(path), RunConfig(group_column="region"))
    assert sample.values.tolist() == [1.0, 2.0]
    assert sample.group_labels.tolist() == ["a", "b"]


def test_ingest_skips_a_byte_order_mark_with_a_short_row(tmp_path):
    # A row lacking a needed field sends ingest to its csv fallback, which
    # re-reads the file from the start.
    path = tmp_path / "bom_short.csv"
    path.write_bytes(b"\xef\xbb\xbfincome,region\n3,a\n4\n")
    with pytest.raises(DataFormatError, match="row 2: empty group label"):
        ingest_csv(str(path), RunConfig(group_column="region"))


def test_ingest_empty_inputs(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataFormatError, match="empty file"):
        ingest_csv(str(empty), RunConfig())
    headers_only = tmp_path / "headers.csv"
    headers_only.write_text("income\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="no data rows"):
        ingest_csv(str(headers_only), RunConfig())


def test_ingest_headers_only_leaks_no_numpy_warning(tmp_path):
    path = tmp_path / "headers.csv"
    path.write_text("income,region\n\n\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match="no data rows"):
            ingest_csv(str(path), RunConfig(group_column="region"))
    path.write_text("income\n1\n\n2\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ingest_csv(str(path), RunConfig()).values.tolist() == [1.0, 2.0]


# ---------------------------------------------------------------------------
# parity of the vectorised reader with the row-wise oracle


def _outcome(reader, path, config):
    """What a reader makes of a file: its arrays, or its error message."""
    try:
        sample = reader(path, config)
    except DataFormatError as exc:
        return ("error", str(exc))
    labels = sample.group_labels
    divisors = sample.equivalence_divisors
    return ("sample", sample.values.dtype.str, sample.values.tobytes(),
            None if divisors is None else divisors.tobytes(),
            None if labels is None else (labels.dtype.str, labels.tolist()))


def _assert_parity(path, config):
    expected = _outcome(ingest_csv_rowwise_oracle, path, config)
    assert _outcome(ingest_csv, path, config) == expected
    return expected


REGION = RunConfig(group_column="region")
PARITY_CASES = {
    "blank lines": ("income,region\n\n1,a\n\n\n2,b\n\n", REGION),
    "blank line before a bad row": ("income\n1\n\nabc\n", RunConfig()),
    "quoted comma": ('income,region\n3,"Dakar, urban"\n"4",north\n', REGION),
    "quoted newline and quotes": ('income,region\n1,"north\nside"\n2,"say ""b"""\nx,c\n',
                                  REGION),
    "whitespace": ("income,region,adult_equiv\n 3 , north ,  2 \n\t4\t,south,1\n", REGION),
    "whitespace-only label": ('income,region\n1,a\n2,"  "\n', REGION),
    "whitespace-only line": ("income\n1\n   \n", RunConfig()),
    "short row, divisor missing": ("income,region,adult_equiv\n1,a,1\n2,b\n", REGION),
    "short row, income missing": ("household_id,income\nh1,3\nh2\n", RunConfig()),
    "short row, unused column missing": ("income,notes\n3,x\n4\n", RunConfig()),
    "long rows": ("income,region\n1,a,extra,more\n2,b\n", REGION),
    "crlf": ("income,region,adult_equiv\r\n10,a,2\r\n6,b,3\r\n", REGION),
    "value starts with hash": ("region,income\n#north,1\nsouth,2\n", REGION),
    "income starts with hash": ("income,region\n1,a\n#3,b\n", REGION),
    "nan income": ("income\n1\nnan\n", RunConfig()),
    "inf income": ("income\n1\ninf\n", RunConfig()),
    "negative income": ("income\n1\n-0.5\n", RunConfig()),
    "negative zero income": ("income\n-0\n2\n", RunConfig()),
    "zero divisor": ("income,adult_equiv\n3,1\n3,0\n", RunConfig()),
    "nan divisor": ("income,adult_equiv\n3,1\n3,nan\n", RunConfig()),
    "text divisor": ("income,ae\n3,1\n3,two\n", RunConfig(adult_equiv_column="ae")),
    "empty label": ("income,region\n1,a\n2,\n", REGION),
    "income error wins within a row": ("income,region,adult_equiv\n1,a,1\nabc,,0\n", REGION),
    "label error wins over divisor": ("income,region,adult_equiv\n1,a,1\n1,,0\n", REGION),
    "earlier row wins over column order": ("income,region,adult_equiv\n1,a,0\nabc,b,1\n",
                                           REGION),
    "repeated header name": ("income,income\n1,2\n", RunConfig()),
    "label column is the income column": ("income\n1\n2\n", RunConfig(group_column="income")),
    "headers only": ("income,region\n", REGION),
    "empty file": ("", RunConfig()),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_ingest_matches_rowwise_oracle(case, tmp_path):
    text, config = PARITY_CASES[case]
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_parity(str(path), config)


def _numbers():
    finite = st.floats(-5.0, 1e9, allow_nan=False, allow_infinity=False)
    formatted = st.one_of(finite.map(repr), finite.map("{:.2f}".format),
                          finite.map("{:e}".format), st.integers(-3, 10**6).map(str))
    return st.one_of(formatted, formatted.map(" {} ".format),
                     st.sampled_from(["nan", "inf", "", "abc", "1,5"]))


survey_rows = st.lists(
    st.tuples(_numbers(),
              st.text(alphabet="ab #,\"-", max_size=4),
              _numbers()),
    min_size=0, max_size=30)


@given(survey_rows, st.sampled_from(["\n", "\r\n"]),
       st.lists(st.integers(0, 30), max_size=3))
def test_ingest_matches_rowwise_oracle_on_generated_files(rows, newline, blank_after):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "survey.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator=newline)
            writer.writerow(["income", "region", "adult_equiv"])
            for index, row in enumerate(rows):
                writer.writerow(row)
                if index in blank_after:
                    handle.write(newline)
        for config in (RunConfig(), REGION):
            _assert_parity(path, config)


def test_ingest_matches_rowwise_oracle_on_survey_file(tmp_path):
    rng = np.random.default_rng(7)
    n = 3000
    cents = np.rint(rng.lognormal(11.0, 0.8, n) * 100).astype(np.int64)
    cents[rng.random(n) < 0.03] = 0
    tenths = 10 + 5 * rng.integers(0, 4, n) + 3 * rng.integers(0, 5, n)
    regions = rng.integers(0, 16, n)
    path = tmp_path / "survey.csv"
    lines = ["household_id,region,income,adult_equiv"]
    lines += [f"{i + 1},region-{r:02d},{c // 100}.{c % 100:02d},{t // 10}.{t % 10}"
              for i, (r, c, t) in enumerate(zip(regions.tolist(), cents.tolist(),
                                                tenths.tolist()))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outcome = _assert_parity(str(path), REGION)
    assert outcome[0] == "sample"


def test_run_config_merge_flags_win():
    merged = RunConfig.merged({"poverty_line": 5.0, "seed": 3},
                              {"poverty_line": 7.0, "seed": None})
    assert merged.poverty_line == 7.0
    assert merged.seed == 3


def test_run_config_rejects_unknown_keys():
    with pytest.raises(DataFormatError, match="unknown config keys"):
        RunConfig.merged({"povertyline": 5.0}, {})


def test_run_config_validation():
    with pytest.raises(ValueError, match="poverty line"):
        RunConfig(poverty_line=-2.0).poverty()
    with pytest.raises(ValueError, match="confidence level"):
        RunConfig(poverty_line=1.0, confidence_level=2.0).poverty()
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="quadrature tolerance"):
            RunConfig(poverty_line=1.0, quad_tol=tol).poverty()


def _index_report():
    return {
        "kind": "index", "sample_size": 4, "poverty_line": 5.0,
        "index": 0.9314159, "sigma1_sq": 0.1, "sigma2_sq": 0.2,
        "sigma12": -0.05, "variance": 0.2, "level": 0.95,
        "ci_lower": 0.91, "ci_upper": 0.95,
    }


def test_emit_text_prints_percentages():
    text = emit_report(_index_report(), TEXT).decode("utf-8")
    assert "index (%): 93.14" in text


def test_emit_json_round_trips_full_precision():
    report = _index_report()
    loaded = json.loads(emit_report(report, JSON).decode("utf-8"))
    assert loaded == report
    assert loaded["index"] == 0.9314159


def test_emit_csv_single_row():
    rows = emit_report(_index_report(), CSV).decode("utf-8").strip().splitlines()
    assert len(rows) == 2
    assert rows[0].startswith("sample_size,")


def test_emit_deterministic():
    assert emit_report(_index_report(), JSON) == emit_report(_index_report(), JSON)


def test_emit_unknown_format():
    with pytest.raises(DataFormatError):
        emit_report(_index_report(), "yaml")


# ---------------------------------------------------------------------------
# CLI


def test_cli_index_happy_path(survey_csv, capsys):
    rc = cli_dispatch(["index", "--input", survey_csv, "--poverty-line", "4.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Takayama index report" in out


def test_cli_variance_alias(survey_csv, capsys):
    rc = cli_dispatch(["variance", "--input", survey_csv, "--poverty-line", "4.5"])
    assert rc == 0
    assert "variance components" in capsys.readouterr().out
    reports = []
    for command in ("variance", "index"):
        assert cli_dispatch([command, "--input", survey_csv, "--poverty-line", "4.5",
                             "--format", "json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]


def test_cli_decompose(survey_csv, capsys):
    rc = cli_dispatch(["decompose", "--input", survey_csv, "--poverty-line", "4.5",
                       "--group-column", "region"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "north" in out and "south" in out and "gap" in out


def test_cli_decompose_without_group_column(survey_csv):
    assert cli_dispatch(["decompose", "--input", survey_csv,
                         "--poverty-line", "4.5"]) == 1


def test_cli_unknown_flag_is_usage_error(survey_csv):
    assert cli_dispatch(["index", "--input", survey_csv, "--nope"]) == 1


def test_cli_missing_file_is_data_error(tmp_path):
    missing = str(tmp_path / "absent.csv")
    assert cli_dispatch(["index", "--input", missing, "--poverty-line", "2"]) == 2


def test_cli_bad_row_is_data_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("income\n1\nabc\n", encoding="utf-8")
    assert cli_dispatch(["index", "--input", str(path), "--poverty-line", "2"]) == 2


@pytest.mark.parametrize("text", [
    "income," + "x" * 140_000 + "\n1\n2\n",
    "note,income\n" + "x" * 140_000 + ",1\n2\n",
], ids=["header", "short-row-fallback"])
def test_cli_csv_field_over_limit_is_data_error(text, tmp_path, capsys):
    # csv rejects fields over 131072 characters: in the header, and in the
    # re-read that pads a file with a short row.
    path = tmp_path / "long.csv"
    path.write_text(text, encoding="utf-8")
    assert cli_dispatch(["index", "--input", str(path), "--poverty-line", "2"]) == 2
    assert str(path) in capsys.readouterr().err


def test_cli_infinite_poverty_line_is_data_error(survey_csv):
    assert cli_dispatch(["index", "--input", survey_csv, "--poverty-line", "inf"]) == 2


def test_cli_degenerate_sample_is_numerical_failure(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("income\n0\n0\n", encoding="utf-8")
    assert cli_dispatch(["index", "--input", str(path), "--poverty-line", "2"]) == 3


def test_cli_degenerate_subgroup_is_named(tmp_path, capsys):
    path = tmp_path / "zero_region.csv"
    path.write_text("income,region\n0,north\n0,north\n1,south\n2,south\n",
                    encoding="utf-8")
    argv = ["decompose", "--input", str(path), "--group-column", "region",
            "--poverty-line", "1.5"]
    assert cli_dispatch(argv) == 3
    err = capsys.readouterr().err
    assert "'north'" in err and "degenerate sample mean" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_cli_quad_tol_must_be_positive_and_finite(tol, capsys):
    argv = ["simulate", "--model", "lognormal:0,0.8", "--z", "1", "--n", "50",
            "--reps", "5", f"--quad-tol={tol}"]
    assert cli_dispatch(argv) == 2
    assert "quadrature tolerance must be positive and finite" in capsys.readouterr().err


def _source_env():
    """The environment with this takayama package first on PYTHONPATH."""
    source = os.path.dirname(os.path.dirname(takayama.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("module", ["takayama", "takayama.cli"])
def test_python_m_runs_the_cli(module, survey_csv, tmp_path, capsys):
    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=_source_env(),
                              capture_output=True, text=True, timeout=120)

    missing = run("index", "--input", str(tmp_path / "missing.csv"), "--poverty-line", "2")
    assert missing.returncode == 2
    assert "data error" in missing.stderr
    argv = ["index", "--input", survey_csv, "--poverty-line", "4.5"]
    done = run(*argv)
    assert done.returncode == 0
    assert cli_dispatch(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_cli_config_file_with_flag_override(survey_csv, tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"poverty_line": 2.0,
                                       "confidence_level": 0.9}),
                           encoding="utf-8")
    rc = cli_dispatch(["index", "--input", survey_csv, "--config",
                       str(config_path), "--poverty-line", "4.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "poverty line: 4.5" in out
    assert "90% CI" in out


@pytest.mark.parametrize("command, values", [
    ("simulate", {"sample_size": 2.5}),
    ("simulate", {"seed": "x"}),
    ("simulate", {"quad_tol": "1e-8"}),
    ("index", {"poverty_line": "2"}),
    ("index", {"strict_comparison": "no"}),
])
def test_cli_config_file_values_must_have_their_field_types(command, values, survey_csv,
                                                            tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(values), encoding="utf-8")
    if command == "simulate":
        argv = ["simulate", "--model", "uniform:0,1", "--z", "1", "--reps", "5"]
    else:
        argv = ["index", "--input", survey_csv,
                *([] if "poverty_line" in values else ["--poverty-line", "5"])]
    assert cli_dispatch([*argv, "--config", str(config_path)]) == 2
    assert f"config key {next(iter(values))!r}" in capsys.readouterr().err


def test_cli_config_file_takes_an_int_line_and_a_bool_flag(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("income\n1\n2\n2\n3\n", encoding="utf-8")
    outputs = []
    for values in ({"poverty_line": 2}, {"poverty_line": 2, "strict_comparison": True}):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(values), encoding="utf-8")
        assert cli_dispatch(["index", "--input", str(data), "--config", str(config_path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert "index (%): 37.50" in outputs[0]
    assert "index (%): 100.00" in outputs[1]


def test_cli_output_file_and_report_rerender(survey_csv, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = cli_dispatch(["index", "--input", survey_csv, "--poverty-line", "4.5",
                       "--format", "json", "--output", str(out_path)])
    assert rc == 0
    saved = json.loads(out_path.read_text(encoding="utf-8"))
    assert saved["kind"] == "index"

    rc = cli_dispatch(["report", "--input", str(out_path), "--format", "text"])
    assert rc == 0
    assert "Takayama index report" in capsys.readouterr().out


def test_cli_report_rejects_non_report_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    assert cli_dispatch(["report", "--input", str(path)]) == 2


def test_cli_simulate_smoke(capsys):
    rc = cli_dispatch(["simulate", "--model", "uniform:0,1", "--z", "1",
                       "--n", "200", "--reps", "120", "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "coverage" in out


def test_cli_simulate_gap_csv(capsys):
    rc = cli_dispatch(["simulate", "--model", "exponential:1",
                       "--model", "exponential:0.5", "--weights", "0.5,0.5",
                       "--z", "1", "--n", "150", "--reps", "8", "--seed", "4",
                       "--target", "gap", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("replicate,")
    assert len(lines) == 9


def test_cli_simulate_bad_model():
    assert cli_dispatch(["simulate", "--model", "cauchy:0,1", "--z", "1"]) == 2


def test_cli_simulate_weight_count_must_match_models(capsys):
    rc = cli_dispatch(["simulate", "--model", "uniform:0,1", "--weights", "0.5,0.5",
                       "--z", "1", "--n", "50", "--reps", "5"])
    assert rc == 2
    assert "components and weights must be non-empty and match" in capsys.readouterr().err


def test_cli_simulate_refuses_infinite_variance_model(capsys):
    rc = cli_dispatch(["simulate", "--model", "uniform:0,1", "--model", "pareto:1,1.5",
                       "--z", "1", "--n", "100", "--reps", "10", "--seed", "4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "pareto(1,1.5) has an infinite second moment" in err


# ---------------------------------------------------------------------------
# scipy stays unloaded on the library's paths


def _scipy_modules_after(code):
    """Run code in a fresh interpreter; return the scipy modules it loaded."""
    probe = code + ("\nimport sys\n"
                    "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=_source_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_import_cli_loads_no_scipy():
    assert _scipy_modules_after("import takayama.cli") == "[]"


@pytest.mark.parametrize("argv", [
    ["index", "--poverty-line", "4.5"],
    ["decompose", "--poverty-line", "4.5", "--group-column", "region"],
])
def test_cli_empirical_commands_load_no_scipy(argv, survey_csv, tmp_path):
    argv = argv + ["--input", survey_csv, "--output", str(tmp_path / "report.txt")]
    code = ("from takayama.cli import cli_dispatch\n"
            f"assert cli_dispatch({argv!r}) == 0\n")
    assert _scipy_modules_after(code) == "[]"
    assert "report" in (tmp_path / "report.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("target", ["takayama", "gap"])
def test_cli_simulate_loads_no_scipy_solvers(target, tmp_path):
    argv = ["simulate", "--model", "uniform:0,1", "--model", "lognormal:0,0.8",
            "--z", "1", "--n", "50", "--reps", "5", "--seed", "3", "--target", target,
            "--output", str(tmp_path / "report.txt")]
    code = ("from takayama.cli import cli_dispatch\n"
            f"assert cli_dispatch({argv!r}) == 0\n")
    assert _scipy_modules_after(code) == "[]"


def test_population_functionals_load_no_scipy_solvers():
    code = ("import numpy as np\n"
            "from takayama import *\n"
            "laws = [uniform(0, 1), exponential(1), lognormal(0, 0.8), pareto(1, 3)]\n"
            "cfg = PovertyConfig(1.0)\n"
            "pooled = mixture(laws, [0.25] * 4)\n"
            "takayama_population(pooled, cfg)\n"
            "sigma_analytic(pooled, cfg)\n"
            "pooled.quantile(np.linspace(0.01, 0.99, 5))\n"
            "part = analytic_partition(list(zip('abcd', laws, [0.25] * 4)))\n"
            "decomposability_gap(part, cfg)\n"
            "gap_variance(part, cfg)\n")
    assert _scipy_modules_after(code) == "[]"


def test_runtime_runs_with_scipy_blocked(survey_csv, tmp_path):
    # An import hook refuses scipy, as if it were not installed.
    output = ["--output", str(tmp_path / "report.txt")]
    runs = [["index", "--poverty-line", "4.5", "--input", survey_csv, *output],
            ["decompose", "--poverty-line", "4.5", "--group-column", "region",
             "--input", survey_csv, *output]]
    runs += [["simulate", "--model", "uniform:0,1", "--model", "lognormal:0,0.8", "--z", "1",
              "--n", "50", "--reps", "5", "--seed", "3", "--target", target, *output]
             for target in ("takayama", "gap")]
    code = ("import importlib.abc, sys\n"
            "class RefuseScipy(importlib.abc.MetaPathFinder):\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(f'no module named {name!r}')\n"
            "sys.meta_path.insert(0, RefuseScipy())\n"
            "import numpy as np\n"
            "from takayama import *\n"
            "from takayama.cli import cli_dispatch\n"
            f"for argv in {runs!r}:\n"
            "    assert cli_dispatch(argv) == 0, argv\n"
            "pooled = mixture([exponential(1), lognormal(0, 0.8), pareto(1, 3)], [0.5, 0.3, 0.2])\n"
            "assert np.isfinite(pooled.quantile(np.linspace(0.01, 0.99, 9))).all()\n"
            "draws = np.random.default_rng(1).random((4, 50))\n"
            "assert np.isfinite(representation_residual(draws, uniform(0, 1),\n"
            "                                           PovertyConfig(1.0))).all()\n")
    assert _scipy_modules_after(code) == "[]"
