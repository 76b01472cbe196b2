import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statdisc
import statdisc.cli as cli
from statdisc.cli import main
from statdisc.core import SUM_TOL


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


@pytest.mark.parametrize("argv", [
    ["scan", "--n-max", "7", "--statistics", "fermion", "--format", "json"],
    ["scan", "--n-max", "6", "--statistics", "boson", "--format", "json"]])
def test_scan_rows_equal_the_benchmark_reference(argv, capsys):
    reference = (Path(__file__).resolve().parents[1] / "perfbench"
                 / "reference" / "reference.json")
    expected = json.loads(reference.read_text())["cli"][" ".join(argv)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert {row["name"]: row["value"]
            for row in json.loads(out)["results"]} == expected


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


# the flag tables read the first line, argparse the second
@pytest.mark.parametrize("flag", [["--out", ""], ["--out="]])
def test_an_empty_out_is_a_usage_error(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["classical", "--n", "3", *flag, "--format", "csv"]
    assert (cli._read(argv) is None) == (flag == ["--out="])
    code, out, err = run(argv, capsys)
    assert code == 64
    assert out == ""
    assert err.startswith("statdisc: error: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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


def test_discriminate_runs_at_the_capacity_edge(capsys):
    # the largest register the capacity rule admits, through the Fock kernel
    code, out, _ = run(["discriminate", "--n", "8", "--statistics", "fermion",
                        "--format", "json"], capsys)
    assert code == 0
    rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert 0.5 <= rows["p_bs"] <= rows["p_helstrom"] + SUM_TOL


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

    monkeypatch.setitem(cli.SUBCOMMANDS, "reproduce",
                        (boom, *cli.SUBCOMMANDS["reproduce"][1:]))
    code, _, err = run(["reproduce"], capsys)
    assert code == 2
    assert "internal error" in err


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_a_value_off_its_reference_exits_1(fmt, monkeypatch, capsys):
    monkeypatch.setattr(cli, "classical_pauli_success", lambda n, how: 0.5)
    code, out, err = run(["reproduce", "--format", fmt], capsys)
    assert code == 1
    assert "classical exclusion model, n=6" in out
    assert err == ""


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_a_nan_value_exits_1_wherever_its_row_sits(fmt, monkeypatch, capsys):
    # the classical rows follow the first one, which carries a finite error;
    # an infinite value fails the same way, and both print as plain digits
    for value, digits in ((float("nan"), "nan"), (float("inf"), "inf")):
        monkeypatch.setattr(cli, "classical_pauli_success",
                            lambda n, how: value)
        code, out, err = run(["reproduce", "--format", fmt], capsys)
        assert code == 1
        assert err == ""
        assert "classical exclusion model, n=6" in out
        if fmt != "json":
            assert digits in out


@pytest.mark.parametrize("argv", [
    ["reproduce"], ["discriminate"], ["scan", "--n-max", "2"],
    ["detect", "--schmidt", "0.3"], ["purify", "--r", "0.5"],
    ["classical", "--n", "3"]])
def test_every_report_echoes_every_setting(argv, capsys):
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert set(config) == {
        "command", "format", "seed", "n", "n_max", "statistics", "prior0",
        "pair", "schmidt", "r", "theta", "phi", "classical_interpretation"}
    assert config["command"] == argv[0]


def run_module(args):
    """``python -m statdisc args`` in a fresh interpreter, as bytes."""
    # the child must find the same statdisc this process imported, whether
    # it came from an install or from pytest's pythonpath setting
    source = str(Path(statdisc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point_runs():
    result = run_module(["-m", "statdisc", "classical", "--n", "2",
                         "--format", "csv"])
    assert result.returncode == 0
    assert result.stdout.startswith(b"name,")


@pytest.mark.parametrize("argv", [
    ["classical", "--n", "7", "--format", "json"],
    ["classical", "--n", "3", "--format", "xml"],
    # lines the flag tables decline and the root parser reads: an
    # abbreviation of --n-max, a joined value and a value starting with -
    ["scan", "--n", "3", "--statistics", "boson", "--format", "json"],
    ["classical", "--n=4", "--format", "json"],
    ["discriminate", "--prior0", "-0", "--format", "json"]])
def test_module_entry_point_matches_main(argv, monkeypatch):
    # argparse wraps a refusal's usage line to COLUMNS, in both processes
    monkeypatch.setenv("COLUMNS", "80")
    result = run_module(["-m", "statdisc", *argv])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 64)
    assert (result.returncode, result.stdout, result.stderr) == (
        code, out.getvalue().encode(), err.getvalue().encode())


def test_importing_the_cli_leaves_locale_unloaded():
    # argparse imports locale on its first gettext lookup; that cost belongs
    # to the parse, not to the import
    result = run_module(["-c", "import sys, statdisc.cli; "
                               "print('locale' in sys.modules)"])
    assert (result.returncode, result.stdout) == (0, b"False\n")


def test_a_complete_line_leaves_locale_unloaded():
    # a line the flag tables read builds no parser, so argparse's first
    # gettext lookup, which imports locale, never happens
    result = run_module(["-c", "import sys; from statdisc.cli import main; "
                               "code = main(['classical', '--n', '7', "
                               "'--format', 'json']); "
                               "print(code, 'locale' in sys.modules, "
                               "file=sys.stderr)"])
    assert (result.returncode, result.stderr) == (0, b"0 False\n")
    assert json.loads(result.stdout)["experiment"] == "classical"


# --------------------------------------------------------------- arguments

def subcommands(parser) -> list[str]:
    [action] = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


# a command line for each subcommand that sets most of its own arguments
TYPICAL_LINES = {
    "reproduce": "reproduce --format csv",
    "discriminate": "discriminate --pair aligned-antialigned "
                    "--statistics boson --prior0 0.7",
    "scan": "scan --n-max 4 --statistics boson --seed 3",
    "detect": "detect --schmidt 0.3",
    "purify": "purify --r 0.5 --theta 1.2 --phi 0.4",
    "classical": "classical --n 4 --classical-interpretation literal "
                 "--out report.json --format json",
}


@pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
def test_a_subcommand_alone_parses_as_the_whole_parser_does(command):
    argv = TYPICAL_LINES[command].split()
    whole = cli.build_parser()
    assert subcommands(whole) == list(cli.SUBCOMMANDS)
    assert vars(cli._read(argv)) == vars(whole.parse_args(argv))


def test_a_complete_line_builds_no_parser(monkeypatch, tmp_path, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    monkeypatch.chdir(tmp_path)  # the classical line writes report.json
    for line in TYPICAL_LINES.values():
        # the console script's path: main reads its arguments from sys.argv
        monkeypatch.setattr(sys, "argv", ["statdisc", *line.split()])
        assert main() == 0, line
    assert capsys.readouterr().out.startswith("name,value,")  # reproduce's
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["classical_interpretation"] == "literal"


# one line of each shape the flag tables leave to the root parser
DECLINED_LINES = [
    [], ["frobnicate"], ["--format", "json", "classical", "--n", "3"],
    ["classical"], ["detect", "--statistics", "boson"],  # a required flag
    ["classical", "--n"], ["classical", "--n", "3", "extra"],
    ["scan", "--n", "3"], ["discriminate", "--stat", "boson"],  # abbreviated
    ["classical", "--n=4"], ["reproduce", "--format=json"],
    ["discriminate", "--prior0", "-1"], ["discriminate", "--prior0", "-0.5"],
    ["classical", "--n", ""], ["classical", "--n", "abc"],
    ["classical", "--n", "nan"], ["classical", "--n", "3", "--format", "xml"],
    ["classical", "--n", "--"], ["classical", "--n", "3", "--", "extra"],
    ["classical", "-h"], ["classical", "--n", "3", "--help", "x"],
    ["reproduce", "--n", "3"],  # a flag of another subcommand
    ["classical", "--n", "abc", "--n", "3"],  # a bad value, then a good one
]


@pytest.mark.parametrize("argv", DECLINED_LINES)
def test_the_flag_tables_decline_what_they_cannot_read_completely(argv):
    assert cli._read(argv) is None


def same_settings(read, parsed) -> bool:
    """``vars`` of two namespaces agree, a NaN matching a NaN."""
    read, parsed = vars(read), vars(parsed)
    return read.keys() == parsed.keys() and all(
        read[k] == parsed[k] or read[k] != read[k] and parsed[k] != parsed[k]
        for k in read)


_OWN_FLAGS = sorted({flag for _, _, flags in cli.SUBCOMMANDS.values()
                     for flag in flags})
_VALUES = ["0", "1", "3", "0.3", "1e-3", " 7", "nan", "inf", "report.json",
           "", "abc", "-1", "-0", "-0.5", "--", "-h", "--help", "extra"]
# values that a flag of each type reads
_FITTING = {int: ["0", "3", " 7"], float: ["0", "0.3", "1e-3", "nan"],
            None: ["report.json", ""]}


@st.composite
def command_lines(draw) -> list[str]:
    """A subcommand, then mostly pairs of its own flags and values of their
    choices or types, among every shape the flag tables decline."""
    command = draw(st.sampled_from(list(cli.SUBCOMMANDS)))
    own = {**cli._COMMON, **cli.SUBCOMMANDS[command][2]}
    argv = [command]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(list(own)))
        fitting = own[flag].get("choices") or _FITTING[own[flag].get("type")]
        value = draw(st.sampled_from(fitting) | st.sampled_from(_VALUES))
        shape = draw(st.sampled_from(["pair"] * 12 + [
            "another flag", "abbreviated", "joined", "word"]))
        if shape == "another flag":
            flag = draw(st.sampled_from(_OWN_FLAGS))
        elif shape == "abbreviated":
            flag = flag[:draw(st.integers(3, max(3, len(flag) - 1)))]
        if shape == "joined":
            argv.append(f"{flag}={value}")
        elif shape == "word":
            argv.append(value)
        else:
            argv += [flag, value]
    return argv


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_a_line_the_flag_tables_read_parses_the_same(argv):
    config = cli._read(argv)
    if config is not None:
        assert same_settings(config, cli.build_parser().parse_args(argv))


def outcome(call, argv):
    """Exit code, stdout and stderr of ``call(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            call(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("line", [
    "classical --n 3 --bogus", "classical --n 3 extra", "classical --n abc",
    "classical", "classical --n", "classical --n 3 -- extra",
    "classical --n 3 --format xml", "classical -h"])
def test_a_subcommand_refuses_as_the_whole_parser_does(line, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = line.split()
    expected = outcome(lambda args: cli.build_parser().parse_args(args), argv)
    assert expected[0] in (0, 64)
    assert outcome(main, argv) == expected


# ------------------------------------------------------------ byte contract

def contract_digest(argv) -> str:
    """SHA-256 of the exit code, stdout and stderr of ``main(argv)``, run in
    this process as ``python -m statdisc`` would run it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses usage by exiting
            code = exc.code
    outcome = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(outcome.encode()).hexdigest()


# The command lines whose output is pinned byte for byte, each with the
# contract_digest it had at 80 columns: every published number, the scans
# and discrimination tasks the Fock kernel computes, the other experiments,
# and the usage (exit 64) and capacity (exit 65) refusals, among them the
# root parser's own, whose usage line names every subcommand.
CONTRACT_DIGESTS = {
    'reproduce':
        '558f90635d266c93c53c62d5ad91ea0a5bbf23a58b2c41163db7b44440fa83d0',
    'reproduce --format json':
        'be2c16498ea599201f60d5f77c79d8cc0d575fad2cf10705d3d8a8cbe3dbca68',
    'scan --n-max 1 --statistics fermion --format json':
        'c1142db1eab7d7cf9180721dd880840fa49a0acc0846baf171147099ab366cfd',
    'scan --n-max 2 --statistics fermion --format json':
        '24410f38ac458210144430d19ce1b67a8b1e0326ed33e2ae8e57111d1d055a16',
    'scan --n-max 3 --statistics fermion --format json':
        'b6cd3ed0efea2ec8891be6ec77c5367f8c58fe8951126e163da103ae9d88f892',
    'scan --n-max 4 --statistics fermion --format json':
        '2175f6e862f5dc8a677bbcf42f9055e36b0c28bf53a5c76b77bcf03edd77c193',
    'scan --n-max 5 --statistics fermion --format json':
        '0b3b3ddce11fb3c994c9b26f25465c3cab3879c68a8e04a91b32a4a1cf479c23',
    'scan --n-max 6 --statistics fermion --format json':
        'ea25815532b96644ee0dcf2053ced29d5fb13900ad1b53fb3a5dca3272c3e7df',
    'scan --n-max 7 --statistics fermion --format json':
        'dc90fd1d685a1605582e5ee15fb5434ee675a3b85b79005e5533c43f9af1ee08',
    'scan --n-max 1 --statistics boson --format json':
        '16d861509a7b495b876547561abc31767425d851bff2650d98da19142b441f09',
    'scan --n-max 2 --statistics boson --format json':
        '1f15a4bf7d589bf74a1d9233368af0126bee114f9bcb2219ea658543d19511af',
    'scan --n-max 3 --statistics boson --format json':
        'a53e8e54884181e8026641f5e6b1b60e3eb8058c01684edbd348bbfba9fd4e75',
    'scan --n-max 4 --statistics boson --format json':
        'b73a90a7a76ae597ddb45475973bebdb7d10de545b7fc75e8fe51a29a8222fcc',
    'scan --n-max 5 --statistics boson --format json':
        '83c4ca640f0bb690d3de5c3600bcf92a4d3b6db5a8fc5e0da6b059aed3a7719b',
    'scan --n-max 6 --statistics boson --format json':
        '98ab1ee6054e87944d50dccf5fa4a2cbc7b0cb0a6b12a253dd11a08159654fb9',
    'discriminate --n 2 --statistics boson --format json':
        '8f4155ff6adf4784b3c4b3e107999fcb0ac15ccb14b1050bd12f0e1038fc5f44',
    'discriminate --n 3 --statistics boson --format json':
        'db1aa1e334e847736d00cf10e0b22c5bd5a265b44055fc69ec6b3bcd47c58046',
    'discriminate --n 4 --statistics boson --format json':
        'c299439a494de742c4e1c374e0f35e1beac79409a166fcdfe069220d94d7c2ee',
    'discriminate --n 5 --statistics boson --format json':
        '35feaff6e39f9e92a9062cd57cd277ab2a6e58488058688131c68935ba524983',
    'discriminate --n 6 --statistics boson --format json':
        '9dd1c5998d8d0995bd04c4eefcf8ad5e12fd820b04a051aab7b23289e1a25eef',
    # the mixed call runs 125 groups of one-input members here, 9 at n = 6
    'discriminate --n 7 --statistics boson --format json':
        '73afaa6b550e038c9db40380ef34c20abaa05a7f7e3316fcc64fbafe079ba000',
    # the 128- and 256-wide positivity checks of the largest registers
    'discriminate --n 7':
        'f2cbb5435d0fa95eff2498a4c79b6bf345daa98a5765d15d9da7dc7ef1f2faf4',
    'discriminate --n 8 --statistics fermion':
        'e604f42b2129564d96931eebbe14dd96e2cf4d90d2017155a57f1107277a6727',
    'discriminate --n 2 --statistics fermion --format json':
        'c53640e4cbe2b927bb58cf494e049a16cb47a64d78fa3b5b6f504c0ec0e1f08c',
    'discriminate --n 3 --statistics fermion --format json':
        'bc10bf8995aa73901a27859334535cc78da89c4bd2c1087b77b0a4c09a9e8d55',
    'discriminate --n 4 --statistics fermion --format json':
        '9b1495c37f05a12459ab692cb46f65a0b594bf72c6313c48ce8188ca12d462c5',
    'discriminate --n 5 --statistics fermion --format json':
        'c3c8c829b7d87d1ba5fa28bbf9cb1c6caff51a88ab5595b07e8934459a487ef2',
    'discriminate --n 6 --statistics fermion --format json':
        'db4dcafad2eaae841372db041f01a59712e8a5f7a2840b95e911204cdc04aed3',
    ('discriminate --pair aligned-antialigned --statistics boson'
     ' --prior0 0.3 --format json'):
        '5a45f37bfbc0df7d329bb7df022cf1a61fa31a0c6fab68553fc1df9d4df1fab6',
    ('discriminate --pair aligned-antialigned --statistics fermion'
     ' --prior0 0.3 --format json'):
        'bfde2e18b33422b5c0479a19a4303f1b93fe543b034a435375be8ab4a348d119',
    'detect --schmidt 0 --statistics boson --format json':
        '8f55c47d1d1703246afc4919b4ee11d225b0416270ef65d6680e5401b967f539',
    'detect --schmidt 0.3 --statistics boson --format json':
        '85152ddf06cc0df91312795518fd9e0f41ff9cb63e4ed0bdcb7c17d3dd24a1de',
    'detect --schmidt 0.5 --statistics boson --format json':
        '729d24c25073df754cb50598ecfb1f35a7039b97210c6574650c26534ac9d6a8',
    'detect --schmidt 0 --statistics fermion --format json':
        'e8c74045889164affc5942dbd75b6c0ba2051e5e44bb31e6e39a5b778a35502e',
    'detect --schmidt 0.3 --statistics fermion --format json':
        '7631d7767e2ad996b86ad5f8ac4cb5cb0fa6ffaea0ff00882a41ee4fefbb866e',
    'detect --schmidt 0.5 --statistics fermion --format json':
        '6eabc6f49a04142fd7fec315bbb7a083788745c2b5df0b6daabdf6596e9cc986',
    'purify --r 0.5 --format json':
        '9419b8c8b11be8cd2089d4649d54bda2dac37abc117f19950cb5c38b1f5eb137',
    'purify --r 0.3 --theta 1.1 --phi 2.2 --format json':
        '97a0841c2491c1cb77ef0c7a31e0d1632e4a99f4a79b3a0bd954a1f2e1a821bb',
    'classical --n 1 --format json':
        '098e247134b17e4006770c684f20b7110b7cbb112edbdbc7b1a557c5416a2ae7',
    'classical --n 2 --format json':
        '676e6eccf7af433677274c8aec2cf6f704ff278e1066a83c259f880b5aa7fa79',
    'classical --n 3 --format json':
        '4e0c434971410c2e7dc11392683bfef0a6ae53d3928fc5a4e1027ddd11ed3fc2',
    'classical --n 4 --format json':
        'e4af9a5265aad1f2b549d6483410368f4e9e0a4044867afb2c605eee35ed1293',
    'classical --n 5 --format json':
        'ae8894db3f8080ef85a9db66cbd86709f08a6f3587f817e6dff005692250ff2b',
    'classical --n 6 --format json':
        '583ff69e848f9cf9e4987bf7a9703ee6c7d227e6829d76d8e646c1633a02b103',
    'classical --n 7 --format json':
        '937d3c45f75b3cd1a6928b4b8170b21d6ece04c2ce88cb071d1b8571df9b095f',
    'classical --n 8 --format json':
        '6f4f7a08bb8fd3d2b09677010362b37da1ad2a4d761934bf99d79296fec253e7',
    'classical --n 1 --classical-interpretation literal --format json':
        'ccf6a5dfa94b54dafab0b5ce583f85d8c6e107adfa18e4f4fe19f0461cf63ed4',
    'classical --n 2 --classical-interpretation literal --format json':
        '0bb364934a71c315fb02a918181d76ea9cc2df5796e2a6fab30190cb2b8567c9',
    'classical --n 3 --classical-interpretation literal --format json':
        '2b359759a1691acdb2d0cb5dad77d81c82713bc9885cafaba4768ec5063a5523',
    'classical --n 4 --classical-interpretation literal --format json':
        '689f003ac1360a3d07236974775055c6c341a5b93c67f7bc88e74319247408ee',
    'classical --n 5 --classical-interpretation literal --format json':
        'cd0ba73284323686dbf5d50f5305f05d5c52dea7bd5a46aad65584a4ae44b6c2',
    'classical --n 6 --classical-interpretation literal --format json':
        '2cbdde34044d87ad91f0729e8f3e1fbe5687b68aac0ad22efe9a0d9837dda6b2',
    'classical --n 7 --classical-interpretation literal --format json':
        '9bdefd4ce7c0000d089e7d30066f612af8c006c01943f7fb7ee077e9249b5414',
    'classical --n 8 --classical-interpretation literal --format json':
        'b285cb140761718200d357a9659741015f2b3f88eb541b69f55f47eab96e3991',
    '':
        '345301e25f68b5b25af1da31b66775157a7566205d771801c90454b7d92e8a75',
    'classical --n 3 --bogus':
        '3c50c1362de732f9090090e70b8ea2cc185c0f9c8a7d0ff46736cb53764017ea',
    'classical --n 3 extra':
        'ee4bb0bad4a02d67173ac8fabeab2d95f34778db7d7b957a13f9b63f2a790988',
    '--format json classical --n 3':
        '8bf322853cc0e6c44bf13a36517956d6a31e4af5622e4090eeb90e3e81be672d',
    '-- classical --n 3':
        '4cec711ba78be56cf084332cb0d24ac5734569127ce1015b6a28868d3b8788eb',
    'frobnicate':
        'ea00c51d1517df2d3d78a88330aefbfe5ed640c1ff8c07aaf52cf6a3731587af',
    'detect':
        '12f9b058e0238315099745d46db13f5d2797d4dd5e63c9639a522f9ba06d4f71',
    'reproduce --format yaml':
        '888376b05af8a206831252c885997442aabb91b5f99e821769e4b7b195dabda8',
    'detect --schmidt 0.7':
        'c8ee5e9738a56a04ba552d858babee715101d35a0ea63f7e11c292f16da1e163',
    'purify --r 1.5':
        '3c684b47e2782da0fa1ee02cbc042a574353f45f35a558c5c660355a7bd02e4f',
    'discriminate --pair aligned-antialigned --n 3':
        'ea8ee72af5cf9924fe8f840da581a0993cba52b7396c6ad9f45f9426beac302c',
    'discriminate --n 0':
        'cc98d359beecf40df271eb0e950e1c398e1115a3ae31b16bc306183308c76d05',
    'scan --n-max 0':
        'cc98d359beecf40df271eb0e950e1c398e1115a3ae31b16bc306183308c76d05',
    'discriminate --n 9':
        '0211c4e0b64066566a85c8893ec103f4f3af0e784c876bb1c76c76ac74265cfa',
    'discriminate --n 9 --pair aligned-antialigned':
        '0211c4e0b64066566a85c8893ec103f4f3af0e784c876bb1c76c76ac74265cfa',
    'scan --n-max 9':
        '0211c4e0b64066566a85c8893ec103f4f3af0e784c876bb1c76c76ac74265cfa',
    'scan --n-max 9 --statistics boson':
        '0211c4e0b64066566a85c8893ec103f4f3af0e784c876bb1c76c76ac74265cfa',
    'classical --n 9':
        '0211c4e0b64066566a85c8893ec103f4f3af0e784c876bb1c76c76ac74265cfa',
    # lines the flag tables decline and the root parser reads
    'scan --n 3 --statistics boson --format json':
        'a53e8e54884181e8026641f5e6b1b60e3eb8058c01684edbd348bbfba9fd4e75',
    'classical --n=4 --format json':
        'e4af9a5265aad1f2b549d6483410368f4e9e0a4044867afb2c605eee35ed1293',
    'discriminate --prior0 -0 --format json':
        'f61a995f3656e808e71c1d3119eb2cc6c1c8901bb9fdb91d1d7e6ccfaef2c717',
}


def test_the_cli_output_is_byte_identical_to_its_pinned_digests(monkeypatch):
    # argparse wraps its usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    # twice in one process: the second pass reads every cache the first
    # filled, and must not change a byte either
    for _ in range(2):
        changed = [line for line, digest in CONTRACT_DIGESTS.items()
                   if contract_digest(line.split()) != digest]
        assert changed == []


# The help text of statdisc and of each subcommand, pinned at 80 columns by
# the contract_digest of its exit code (0), stdout and empty stderr.
HELP_DIGESTS = {
    '--help':
        'a80b533238ab360c3d12e329fba1c08d5cfa7bc15726e985d545142b4a2d9912',
    'reproduce --help':
        'db558a7da058b40f1c4efc3218e7fe7cc24aafacbeac34402c845f4a9f4ce1ae',
    'discriminate --help':
        '1aceda955504926eee721fdd7514e743a2ef466697e52219faf1ac24684ff81e',
    'scan --help':
        '0d43e970cf76a179dfd543b532d52b61fe8b44e919dc7ea6ca21e89a52920cba',
    'detect --help':
        '9dbac9f7c1c72c613a569e289489e1d4db00ee01da934e4cbad638278af8519f',
    'purify --help':
        'cba51080fd51f6f68677f8faf0a6f4504a6291201d404c7d7d8ea7cb6dbb04f8',
    'classical --help':
        '2be92aaa73250779999aa610b6d66a374401e407bb262c2a5b23f72f1d62154b',
}


def test_the_help_texts_are_byte_identical_to_their_pinned_digests(
        monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert set(HELP_DIGESTS) == {"--help"} | {
        f"{command} --help" for command in cli.SUBCOMMANDS}
    changed = [line for line, digest in HELP_DIGESTS.items()
               if contract_digest(line.split()) != digest]
    assert changed == []
