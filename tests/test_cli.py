import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import statdisc
import statdisc.cli as cli
from statdisc.cli import main


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------- reproduce

def test_reproduce_exits_clean(capsys):
    code, out, err = run(["reproduce", "--format", "json"], capsys)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["experiment"] == "reproduce"
    assert len(payload["results"]) == 30
    for row in payload["results"]:
        assert set(row) == {"name", "value", "paper_value", "abs_error"}
        assert row["abs_error"] < 1e-10


def test_reproduce_json_matches_the_benchmark_reference_bytes(capsys):
    reference = (Path(__file__).resolve().parents[1] / "perfbench"
                 / "reference" / "reproduce.json")
    _, out, _ = run(["reproduce", "--format", "json"], capsys)
    assert out.encode("utf-8") == reference.read_bytes()


def test_reproduce_covers_every_headline_number(capsys):
    _, out, _ = run(["reproduce", "--format", "json"], capsys)
    rows = {r["name"]: r for r in json.loads(out)["results"]}
    assert rows["helstrom aligned vs antialigned, n=2"]["value"] == \
        pytest.approx(0.75, abs=1e-10)
    assert rows["beam splitter aligned vs mixed, boson, n=2"]["value"] == \
        pytest.approx(0.625, abs=1e-10)
    assert rows["beam splitter aligned vs mixed, fermion, n=3"]["value"] == \
        pytest.approx(0.75, abs=1e-10)
    assert rows["classical exclusion model, n=6"]["paper_value"] == \
        1.0 - 7.0 / 2.0 ** 7


def test_identical_configurations_serialize_byte_identically(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["detect", "--schmidt", "0.3", "--format", "json",
                 "--out", str(a)]) == 0
    assert main(["detect", "--schmidt", "0.3", "--format", "json",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # the destination itself must not leak into the payload
    code, out, _ = run(["detect", "--schmidt", "0.3", "--format", "json"],
                       capsys)
    assert code == 0
    assert out.encode("utf-8") == a.read_bytes()


def test_out_flag_writes_the_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(["purify", "--r", "0.5", "--format", "csv",
                        "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("name,")


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_a_usage_error(where, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.json" if where == "missing directory" \
        else tmp_path
    code, out, err = run(["classical", "--n", "3", "--out", str(target)],
                         capsys)
    assert code == 64
    assert out == ""
    assert err.startswith("statdisc: error: ")
    assert err.count("\n") == 1
    assert str(target) in err


# ------------------------------------------------------------------ formats

def test_csv_uses_crlf_and_a_header(capsys):
    _, out, _ = run(["classical", "--n", "3", "--format", "csv"], capsys)
    lines = out.split("\r\n")
    assert lines[0] == "name,value,paper_value,abs_error"
    assert lines[-1] == ""
    assert len(lines) == 5
    assert "\n" not in out.replace("\r\n", "")


def test_table_annotates_simple_fractions(capsys):
    _, out, _ = run(["purify", "--r", "0.5"], capsys)
    assert "0.8125 (13/16)" in out
    assert "experiment: purify" in out


def test_json_echoes_the_seed(capsys):
    _, out, _ = run(["detect", "--schmidt", "0.1", "--seed", "7",
                     "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["config"]["seed"] == 7
    assert "out" not in payload["config"]


# --------------------------------------------------------------- experiments

def test_discriminate_reports_the_swap_strategy(capsys):
    _, out, _ = run(["discriminate", "--pair", "aligned-antialigned",
                     "--statistics", "fermion", "--format", "json"], capsys)
    rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert abs(rows["p_bs"] - 0.75) < 1e-12
    assert abs(rows["gap"]) < 1e-12
    guesses = {name: value for name, value in rows.items()
               if name.startswith("guess[")}
    assert len(guesses) == 3
    assert set(guesses.values()) == {0.0, 1.0}


def test_scan_emits_four_rows_per_particle_number(capsys):
    _, out, _ = run(["scan", "--n-max", "3", "--statistics", "fermion",
                     "--format", "json"], capsys)
    rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert len(rows) == 12
    for n in (1, 2, 3):
        assert abs(rows[f"gap[n={n}]"]) < 1e-10
    assert rows["pattern_count[n=2]"] == 3.0


def test_detect_and_purify_report_the_frozen_values(capsys):
    _, out, _ = run(["detect", "--schmidt", "0.5", "--format", "json"], capsys)
    rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert abs(rows["detection success"] - 0.625) < 1e-12

    _, out, _ = run(["purify", "--r", "0.5", "--format", "json"], capsys)
    rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert abs(rows["success"] - 13.0 / 16.0) < 1e-14
    assert abs(rows["bloch length out"] - 8.0 / 13.0) < 1e-14


def test_classical_literal_reading_deviates(capsys):
    _, out, _ = run(["classical", "--n", "2",
                     "--classical-interpretation", "literal",
                     "--format", "json"], capsys)
    rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert rows["classical success"] == 0.5
    assert rows["deviation"] == pytest.approx(-0.125)


# --------------------------------------------------------------- exit codes

def test_usage_errors_exit_64():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["detect"])  # --schmidt is required
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--format", "yaml"])
    assert exc.value.code == 64


def test_domain_errors_exit_64(capsys):
    code, _, err = run(["detect", "--schmidt", "0.7"], capsys)
    assert code == 64
    assert "schmidt" in err
    code, _, err = run(["discriminate", "--pair", "aligned-antialigned",
                        "--n", "3"], capsys)
    assert code == 64


def test_capacity_errors_exit_65(capsys):
    for argv in (["classical", "--n", "9"], ["scan", "--n-max", "9"],
                 ["discriminate", "--n", "9"], ["discriminate", "--n", "30"],
                 ["scan", "--n-max", "30"], ["classical", "--n", "30"],
                 ["discriminate", "--n", "9",
                  "--pair", "aligned-antialigned"]):
        code, _, err = run(argv, capsys)
        assert code == 65, argv
        assert "capacity" in err


def test_unexpected_failures_exit_2(monkeypatch, capsys):
    def boom(config):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli.COMMANDS, "reproduce", boom)
    code, _, err = run(["reproduce"], capsys)
    assert code == 2
    assert "internal error" in err


def test_module_entry_point_runs():
    # the child must find the same statdisc this process imported, whether
    # it came from an install or from pytest's pythonpath setting
    source = str(Path(statdisc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "statdisc", "classical", "--n", "2",
         "--format", "csv"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0
    assert result.stdout.startswith("name,")
