"""Command line front end.

Subcommands map one-to-one onto the library: ``reproduce`` recomputes the
published probabilities and fails loudly on any mismatch, the rest expose
single experiments.  ``SUBCOMMANDS`` is the one table of them: the parsers,
the dispatch in ``main`` and every report's null settings come from its
handlers, help lines and flags, and ``_COMMON`` holds the flags every
subcommand shares.  Output is a table, JSON, or RFC-4180 CSV; identical
configurations produce byte-identical JSON.

A line that names a subcommand and then gives only that subcommand's flags,
each spelled in full and followed by one value that does not start with
``-``, is read straight from the two tables, with no argparse parser.  Any
other line (help, a refusal, an abbreviation, ``--flag=value``, a value
such as ``-1``) goes to the root parser, which words every help text and
refusal.  For ``classical --n 7`` in a fresh process any parser cost more
than the work: argparse's first gettext lookup imports ``locale`` (about
0.8 ms), building and running the subcommand's parser alone took about
0.5 ms more, and the counting and rendering now about 0.2 ms.

Exit codes: 0 success, 1 reproduction mismatch, 2 internal error,
64 usage error (an empty or unwritable ``--out`` too), 65 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .applications import (TwoQubitPureState, classical_pauli_success,
                           detect_entanglement, purify_symmetric,
                           scan_discrimination)
from .core import SUM_TOL, TOL, CapacityError
from .discrimination import (Hypothesis, aligned_vs_mixed_bound,
                             beam_splitter_discrimination, helstrom_bound)
from .multiport import Statistics
from .states import (BlochDirection, aligned_mixture, antialigned_mixture,
                     bloch_vector, maximally_mixed, qubit_density)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 64
EXIT_CAPACITY = 65

MAX_DENOMINATOR = 64

SCHEMA_VERSION = "1"


def _row(name: str, value: float, paper_value: float | None = None) -> dict:
    row: dict = {"name": name, "value": float(value)}
    if paper_value is not None:
        row["paper_value"] = float(paper_value)
        row["abs_error"] = abs(float(value) - float(paper_value))
    return row


# ---------------------------------------------------------------- commands

def cmd_reproduce(config: argparse.Namespace) -> list[dict]:
    rows = []

    h_aligned2 = Hypothesis("H0", aligned_mixture(2), 0.5)
    h_anti = Hypothesis("H1", antialigned_mixture(), 0.5)
    h_mixed2 = Hypothesis("H1", maximally_mixed(2), 0.5)
    rows.append(_row("helstrom aligned vs antialigned, n=2",
                     helstrom_bound(h_aligned2, h_anti), 0.75))
    rows.append(_row("helstrom aligned vs mixed, n=2",
                     helstrom_bound(h_aligned2, h_mixed2), 0.625))
    for stats in (Statistics.FERMION, Statistics.BOSON):
        rows.append(_row(
            f"beam splitter aligned vs antialigned, {stats.value}, n=2",
            beam_splitter_discrimination(h_aligned2, h_anti, stats).p_bs,
            0.75))
    for stats in (Statistics.FERMION, Statistics.BOSON):
        rows.append(_row(
            f"beam splitter aligned vs mixed, {stats.value}, n=2",
            beam_splitter_discrimination(h_aligned2, h_mixed2, stats).p_bs,
            0.625))
    h_aligned3 = Hypothesis("H0", aligned_mixture(3), 0.5)
    h_mixed3 = Hypothesis("H1", maximally_mixed(3), 0.5)
    rows.append(_row(
        "beam splitter aligned vs mixed, fermion, n=3",
        beam_splitter_discrimination(h_aligned3, h_mixed3,
                                     Statistics.FERMION).p_bs,
        0.75))

    for n in range(1, 9):
        h0 = Hypothesis("H0", aligned_mixture(n), 0.5)
        h1 = Hypothesis("H1", maximally_mixed(n), 0.5)
        rows.append(_row(f"helstrom aligned vs mixed, n={n}",
                         helstrom_bound(h0, h1),
                         1.0 - (n + 1) / 2.0 ** (n + 1)))
        rows.append(_row(f"closed-form bound aligned vs mixed, n={n}",
                         aligned_vs_mixed_bound(n),
                         1.0 - (n + 1) / 2.0 ** (n + 1)))

    for n in range(2, 7):
        rows.append(_row(f"classical exclusion model, n={n}",
                         classical_pauli_success(n, "standard"),
                         1.0 - (n + 1) / 2.0 ** (n + 1)))

    singlet = TwoQubitPureState(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2))
    rows.append(_row("entanglement detection, singlet marginals, fermion",
                     detect_entanglement(singlet, Statistics.FERMION), 0.625))

    _, success = purify_symmetric(maximally_mixed(1))
    rows.append(_row("purification success, maximally mixed input",
                     success, 0.75))

    return rows


def cmd_discriminate(config: argparse.Namespace) -> list[dict]:
    n = config.n
    # built first, so that its capacity check precedes the pair check
    aligned = aligned_mixture(n)
    if config.pair == "aligned-antialigned":
        if n != 2:
            raise ValueError("the antialigned state is only defined for n=2")
        other = antialigned_mixture()
    else:
        other = maximally_mixed(n)
    h0 = Hypothesis("H0", aligned, config.prior0)
    h1 = Hypothesis("H1", other, 1.0 - config.prior0)
    report = beam_splitter_discrimination(h0, h1, Statistics(config.statistics))
    rows = [_row("p_helstrom", report.p_helstrom),
            _row("p_bs", report.p_bs),
            _row("gap", report.gap)]
    for pattern, guess in sorted(report.strategy.items()):
        label = ",".join(str(k) for k in pattern)
        rows.append(_row(f"guess[{label}]", float(guess == "H1")))
    return rows


def cmd_scan(config: argparse.Namespace) -> list[dict]:
    reports = scan_discrimination(config.n_max, Statistics(config.statistics))
    rows = []
    for rep in reports:
        rows.append(_row(f"p_bs[n={rep.n}]", rep.p_bs))
        rows.append(_row(f"p_helstrom[n={rep.n}]", rep.p_helstrom))
        rows.append(_row(f"gap[n={rep.n}]", rep.gap))
        rows.append(_row(f"pattern_count[n={rep.n}]", len(rep.strategy)))
    return rows


def cmd_detect(config: argparse.Namespace) -> list[dict]:
    psi = TwoQubitPureState.from_schmidt(config.schmidt)
    p = detect_entanglement(psi, Statistics(config.statistics))
    return [_row("detection success", p),
            _row("schmidt weight", psi.schmidt_lambda)]


def cmd_purify(config: argparse.Namespace) -> list[dict]:
    omega = BlochDirection(config.theta, config.phi)
    rho = qubit_density(config.r, omega)
    purified, success = purify_symmetric(rho)
    length_in = float(np.linalg.norm(bloch_vector(rho)))
    length_out = float(np.linalg.norm(bloch_vector(purified)))
    return [_row("success", success),
            _row("bloch length in", length_in),
            _row("bloch length out", length_out)]


def cmd_classical(config: argparse.Namespace) -> list[dict]:
    value = classical_pauli_success(config.n, config.classical_interpretation)
    bound = aligned_vs_mixed_bound(config.n)
    return [_row("classical success", value),
            _row("quantum bound", bound),
            _row("deviation", value - bound)]


# ------------------------------------------------------------- formatting

def _fraction_note(value: float) -> str | None:
    # NaN and infinities have no fraction; their plain digits say it all
    if not math.isfinite(value):
        return None
    frac = Fraction(value).limit_denominator(MAX_DENOMINATOR)
    # whole numbers need no annotation, the plain digits already say it
    if frac.denominator == 1:
        return None
    if abs(value - float(frac)) < TOL:
        return f"{frac.numerator}/{frac.denominator}"
    return None


def _format_value(value: float) -> str:
    text = f"{value:.15g}"
    note = _fraction_note(value)
    return f"{text} ({note})" if note else text


def render_table(config: argparse.Namespace, rows: list[dict]) -> str:
    header = ("name", "value", "paper_value", "abs_error")
    body = []
    for row in rows:
        body.append((row["name"],
                     _format_value(row["value"]),
                     _format_value(row["paper_value"])
                     if "paper_value" in row else "",
                     f"{row['abs_error']:.3e}" if "abs_error" in row else ""))
    widths = [max(len(header[i]), *(len(r[i]) for r in body))
              for i in range(4)]
    lines = [f"experiment: {config.command}"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_json(config: argparse.Namespace, rows: list[dict]) -> str:
    echoed = vars(config).copy()
    # the destination is not part of the experiment; identical configurations
    # must serialize byte-identically wherever the report lands
    del echoed["out"]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "experiment": config.command,
        "config": echoed,
        "results": rows,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_csv(config: argparse.Namespace, rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(["name", "value", "paper_value", "abs_error"])
    for row in rows:
        writer.writerow([
            row["name"],
            f"{row['value']:.15g}",
            f"{row['paper_value']:.15g}" if "paper_value" in row else "",
            f"{row['abs_error']:.15g}" if "abs_error" in row else "",
        ])
    return buffer.getvalue()


RENDERERS = {"table": render_table, "json": render_json, "csv": render_csv}


# -------------------------------------------------------------- arguments

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here says 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# the flags every subcommand takes, before its own in its usage and help
_COMMON = {
    "--format": {"choices": tuple(RENDERERS), "default": "table"},
    "--out": {"metavar": "PATH",
              "help": "write the report here instead of stdout"},
    "--seed": {"type": int, "default": 42,
               "help": "seed echoed into the report (all production numbers "
                       "are deterministic)"},
}

_STATISTICS = {"choices": tuple(s.value for s in Statistics),
               "default": "fermion"}

# The one subcommand table: each subcommand's handler, its help line and its
# own arguments, which follow the common flags in its usage and help.
SUBCOMMANDS = {
    "reproduce": (cmd_reproduce,
                  "recompute every published probability and compare", {}),
    "discriminate": (cmd_discriminate,
                     "one aligned-vs-other discrimination task", {
        "--pair": {"choices": ("aligned-antialigned", "aligned-mixed"),
                   "default": "aligned-mixed"},
        "--n": {"type": int, "default": 2},
        "--statistics": _STATISTICS,
        "--prior0": {"type": float, "default": 0.5}}),
    "scan": (cmd_scan, "probe the strategy against the bound as the particle "
                       "number grows", {
        "--n-max": {"type": int, "default": 6},
        "--statistics": _STATISTICS}),
    "detect": (cmd_detect, "entanglement detection from two marginals", {
        "--schmidt": {"type": float, "required": True,
                      "help": "smaller squared Schmidt coefficient in "
                              "[0, 1/2]"},
        "--statistics": _STATISTICS}),
    "purify": (cmd_purify,
               "project two copies of a qubit onto the symmetric subspace", {
        "--r": {"type": float, "required": True,
                "help": "Bloch length in [0, 1]"},
        "--theta": {"type": float, "default": 0.0},
        "--phi": {"type": float, "default": 0.0}}),
    "classical": (cmd_classical,
                  "classical exclusion model by exact counting", {
        "--n": {"type": int, "required": True},
        "--classical-interpretation": {"choices": ("standard", "literal"),
                                       "default": "standard"}}),
}


def _dest(flag: str) -> str:
    """The setting a flag fills, named as argparse names it."""
    return flag.lstrip("-").replace("-", "_")


# every report echoes every setting; those of other subcommands read null
_SETTINGS = dict.fromkeys(_dest(flag) for _, _, flags in SUBCOMMANDS.values()
                          for flag in flags)


def _add_arguments(parser: _Parser, command: str) -> None:
    """The common flags, then ``command``'s own arguments."""
    parser.set_defaults(command=command, **_SETTINGS)
    for flag, options in {**_COMMON, **SUBCOMMANDS[command][2]}.items():
        parser.add_argument(flag, **options)


def build_parser() -> _Parser:
    """The statdisc parser, with every subcommand."""
    parser = _Parser(prog="statdisc",
                     description="Discriminate collective internal states of "
                                 "identical particles by arm counting.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for command, (_, help_line, _) in SUBCOMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_line), command)
    return parser


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The settings of a line the flag tables read completely, else None.

    Such a line is a subcommand, then pairs of one of its flags, spelled in
    full, and a value that does not start with ``-``, converted by the
    flag's ``type`` and inside its ``choices``; every required flag is
    there and the last of a repeated flag wins, as in argparse.
    """
    if not argv or argv[0] not in SUBCOMMANDS or len(argv) % 2 == 0:
        return None
    flags = {**_COMMON, **SUBCOMMANDS[argv[0]][2]}
    config = {"command": argv[0], **_SETTINGS}
    config.update((_dest(flag), options.get("default"))
                  for flag, options in flags.items())
    for flag, word in zip(argv[1::2], argv[2::2]):
        options = flags.get(flag)
        if options is None or word.startswith("-"):
            return None
        try:
            value = options.get("type", str)(word)
        except ValueError:
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        config[_dest(flag)] = value
    if any(options.get("required") and flag not in argv[1::2]
           for flag, options in flags.items()):
        return None
    return argparse.Namespace(**config)


def _parse(argv: list[str]) -> argparse.Namespace:
    # a complete line builds no parser; the root words every help text and
    # refusal, and reads what the tables decline, such as an abbreviation
    config = _read(argv)
    return config if config is not None else build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    config = _parse(argv)
    try:
        # an empty path names no file; below it would read as no --out
        if config.out == "":
            raise ValueError("--out names no file")
        rows = SUBCOMMANDS[config.command][0](config)
        text = RENDERERS[config.format](config, rows)
        if config.out:
            Path(config.out).write_text(text, encoding="utf-8")
    except CapacityError as exc:
        print(f"statdisc: capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"statdisc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        print(f"statdisc: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    if not config.out:
        sys.stdout.write(text)
    # each row with a reference must meet it; NaN <= SUM_TOL is false, so a
    # NaN error fails wherever it sits
    if all(row["abs_error"] <= SUM_TOL for row in rows if "abs_error" in row):
        return EXIT_OK
    return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
