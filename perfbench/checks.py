"""Output checks, so that no speed can come from wrong numbers.

Reference values were captured from the seed commit by
``capture_reference.py`` and are stored under ``reference/``.  Every check
returns a list of error strings; an empty list means the task passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The tolerance reproduce itself uses for published values.
TOL = 1e-10

# The CLI tasks of each CLI workload, in the order one iteration runs them.
CLI_TASKS = {
    "scan": (
        ("scan", "--n-max", "7", "--statistics", "fermion", "--format", "json"),
        ("scan", "--n-max", "6", "--statistics", "boson", "--format", "json"),
    ),
    "reproduce": (("reproduce", "--format", "json"),),
    "classical": (
        ("classical", "--n", "7", "--format", "json"),
        ("classical", "--n", "6", "--classical-interpretation", "literal",
         "--format", "json"),
    ),
}


def load_reference() -> dict:
    """Reference rows and distributions, plus the reproduce JSON bytes."""
    reference = json.loads((REFERENCE_DIR / "reference.json").read_text())
    reference["reproduce"] = (REFERENCE_DIR / "reproduce.json").read_bytes()
    return reference


def aligned_vs_mixed_closed_form(n: int) -> float:
    return 1.0 - (n + 1) / 2.0 ** (n + 1)


def check_cli(argv, exit_code: int, stdout: bytes, reference: dict) -> list:
    """Exit code 0 and every reported value at the seed's to within TOL;
    reproduce must match the seed byte for byte."""
    errors = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if argv[0] == "reproduce":
        if stdout != reference["reproduce"]:
            errors.append("reproduce JSON differs from the reference bytes")
        return errors
    try:
        rows = {row["name"]: row["value"]
                for row in json.loads(stdout)["results"]}
    except (ValueError, KeyError, TypeError):
        return errors + ["output is not a statdisc JSON report"]
    expected = reference["cli"][" ".join(argv)]
    if set(rows) != set(expected):
        errors.append(f"rows {sorted(rows)} differ from the reference rows")
    for name, value in expected.items():
        got = rows.get(name)
        if got is None or abs(got - value) > TOL:
            errors.append(f"{name}: {got!r}, reference {value!r}")
    for name, got in rows.items():
        if name.startswith("p_helstrom[n="):
            n = int(name[len("p_helstrom[n="):-1])
            if abs(got - aligned_vs_mixed_closed_form(n)) > TOL:
                errors.append(f"{name}: {got!r} misses 1-(n+1)/2^(n+1)")
    return errors


def _success(d0: dict, d1: dict, prior0: float) -> float:
    """Success of the maximum-posterior rule on two arm-count distributions."""
    prior1 = 1.0 - prior0
    return sum(max(prior0 * d0.get(k, 0.0), prior1 * d1.get(k, 0.0))
               for k in set(d0) | set(d1))


def expected_sweep(task: dict, distributions: dict) -> list[float]:
    """What ``sweep.run_task`` must return, from the seed's arm-count
    distributions and the closed forms of the states involved."""
    kind = task["kind"]
    if kind == "purify":
        # two copies projected onto the symmetric subspace: success
        # (3 + r^2)/4 and Bloch length 4r/(3 + r^2) along the same direction
        r, theta, phi = task["r"], task["theta"], task["phi"]
        length = 4 * r / (3 + r * r)
        return [(3 + r * r) / 4,
                length * math.sin(theta) * math.cos(phi),
                length * math.sin(theta) * math.sin(phi),
                length * math.cos(theta)]
    dists = distributions[task["statistics"]]
    if kind in ("aligned-mixed", "aligned-antialigned"):
        n, p0 = task["n"], task["prior0"]
        p1 = 1.0 - p0
        d0 = dists[f"aligned{n}"]
        if kind == "aligned-mixed":
            # p0 P_sym/(n+1) - p1 I/2^n is diagonal in any basis adapted
            # to the symmetric subspace
            d1 = dists[f"mixed{n}"]
            norm = ((n + 1) * abs(p0 / (n + 1) - p1 / 2 ** n)
                    + (2 ** n - n - 1) * p1 / 2 ** n)
        else:
            # aligned: 1/3 on each triplet; antialigned: 1/6 on each
            # triplet and 1/2 on the singlet
            d1 = dists["antialigned"]
            norm = 3 * abs(p0 / 3 - p1 / 6) + p1 / 2
        return [_success(d0, d1, p0), 0.5 * (1.0 + norm)]
    # detection: both marginals are diag(1 - s, s); arm counts are linear
    # in the state, so the pair's distribution mixes the basis states'
    s = task["schmidt"]
    weights = ((1 - s) ** 2, (1 - s) * s, s * (1 - s), s ** 2)
    mixed: dict = {}
    for i, w in enumerate(weights):
        for k, p in dists[f"basis{i}"].items():
            mixed[k] = mixed.get(k, 0.0) + w * p
    return [_success(dists["aligned2"], mixed, 0.5)]


def check_sweep(task: dict, result, distributions: dict) -> list:
    """Result against the reference at TOL, and 1/2 <= p_bs <= p_helstrom
    <= 1 for every discrimination."""
    if isinstance(result, str):
        return [f"raised {result}"]
    expected = expected_sweep(task, distributions)
    if len(result) != len(expected):
        return [f"returned {result!r}, expected {len(expected)} values"]
    errors = [f"value {i}: {got!r}, reference {want!r}"
              for i, (got, want) in enumerate(zip(result, expected))
              if abs(got - want) > TOL]
    if task["kind"] != "purify":
        p_bs, p_h = result[0], result[-1] if len(result) > 1 else 1.0
        if not 0.5 - TOL <= p_bs <= p_h + TOL <= 1.0 + 2 * TOL:
            errors.append(f"1/2 <= p_bs <= p_helstrom <= 1 fails: {result!r}")
    return errors
