import json

import numpy as np
import pytest

from takayama import DataFormatError
from takayama.cli import cli_dispatch
from takayama.io import CSV, JSON, TEXT, RunConfig, emit_report, ingest_csv


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


def test_ingest_empty_inputs(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataFormatError, match="empty file"):
        ingest_csv(str(empty), RunConfig())
    headers_only = tmp_path / "headers.csv"
    headers_only.write_text("income\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="no data rows"):
        ingest_csv(str(headers_only), RunConfig())


def test_run_config_merge_flags_win():
    merged = RunConfig.merged({"poverty_line": 5.0, "seed": 3},
                              {"poverty_line": 7.0, "seed": None})
    assert merged.poverty_line == 7.0
    assert merged.seed == 3


def test_run_config_rejects_unknown_keys():
    with pytest.raises(DataFormatError, match="unknown config keys"):
        RunConfig.merged({"povertyline": 5.0}, {})


def test_run_config_validation():
    with pytest.raises(DataFormatError):
        RunConfig(poverty_line=-2.0)
    with pytest.raises(DataFormatError):
        RunConfig(confidence_level=2.0)
    with pytest.raises(DataFormatError):
        RunConfig(quad_tol=0.0)


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


def test_cli_infinite_poverty_line_is_data_error(survey_csv):
    assert cli_dispatch(["index", "--input", survey_csv, "--poverty-line", "inf"]) == 2


def test_cli_degenerate_sample_is_numerical_failure(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("income\n0\n0\n", encoding="utf-8")
    assert cli_dispatch(["index", "--input", str(path), "--poverty-line", "2"]) == 3


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
