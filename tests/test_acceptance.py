"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are emitted; without ``-s`` the verdicts still appear as test outcomes.
Every number asserted here was either computed by an independent oracle
before the engine existed or is a closed form checked against exact
enumeration; tolerances are stated inline and are never loosened to make
a red line green.
"""

import functools
import math

import numpy as np

from statdisc.applications import (TwoQubitPureState, classical_comparison,
                                   classical_pauli_success,
                                   detect_entanglement, purify_symmetric,
                                   scan_discrimination)
from statdisc.core import partial_trace, tensor
from statdisc.discrimination import (Hypothesis, aligned_vs_mixed_bound,
                                     beam_splitter_discrimination,
                                     helstrom_bound)
from statdisc.multiport import Statistics, interfere
from statdisc.states import (BlochDirection, aligned_mixture,
                             antialigned_mixture, bloch_state, bloch_vector,
                             maximally_mixed, qubit_density)

from oracles import (SphereQuadrature, aligned_direction_state,
                     antialigned_direction_state,
                     first_quantized_distribution, quadrature_average)

BOSON = Statistics.BOSON
FERMION = Statistics.FERMION
TOTAL = 11


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[{number:2d}/{TOTAL}] FAIL  {title}")
                raise
            print(f"[{number:2d}/{TOTAL}] PASS  {title}")
        return wrapper
    return decorate


def equal_pair(n: int, other) -> tuple[Hypothesis, Hypothesis]:
    return (Hypothesis("H0", aligned_mixture(n), 0.5),
            Hypothesis("H1", other, 0.5))


@criterion(1, "exact bound is 3/4 and 5/8 for the two headline pairs")
def test_01_headline_bounds():
    h0, anti = equal_pair(2, antialigned_mixture())
    _, mixed = equal_pair(2, maximally_mixed(2))
    assert abs(helstrom_bound(h0, anti) - 0.75) < 1e-10
    assert abs(helstrom_bound(h0, mixed) - 0.625) < 1e-10


@criterion(2, "arm counting meets the bound with label-swapped strategies")
def test_02_beam_splitter_strategies():
    for other, target in ((antialigned_mixture(), 0.75),
                          (maximally_mixed(2), 0.625)):
        h0, h1 = equal_pair(2, other)
        reports = {s: beam_splitter_discrimination(h0, h1, s)
                   for s in (BOSON, FERMION)}
        for report in reports.values():
            assert abs(report.p_bs - target) < 1e-10
        boson, fermion = reports[BOSON].strategy, reports[FERMION].strategy
        assert set(boson) == set(fermion)
        for pattern in boson:
            assert boson[pattern] != fermion[pattern]


@criterion(3, "closed-form bound identity holds for one to eight particles")
def test_03_closed_form_identity():
    for n in range(1, 9):
        closed = 1.0 - (n + 1) / 2.0 ** (n + 1)
        h0, h1 = equal_pair(n, maximally_mixed(n))
        assert abs(helstrom_bound(h0, h1) - closed) < 1e-10
        assert abs(aligned_vs_mixed_bound(n) - closed) < 1e-10


@criterion(4, "three fermions through the three-port reach the bound")
def test_04_fermionic_three_port():
    h0, h1 = equal_pair(3, maximally_mixed(3))
    report = beam_splitter_discrimination(h0, h1, FERMION)
    assert abs(report.p_bs - 0.75) < 1e-10
    assert abs(report.gap) < 1e-10


@criterion(5, "identical-spin pairs bunch (bosons) or antibunch (fermions)")
def test_05_hom_certainties():
    up = np.array([1.0, 0.0])
    tilted = bloch_state(BlochDirection(0.8, 2.1))
    for single in (up, tilted):
        pair = np.kron(single, single)
        bosons = interfere(pair, BOSON)
        fermions = interfere(pair, FERMION)
        assert abs(bosons.antibunch_probability()) < 1e-12
        assert abs(bosons.probability((2, 0))
                   + bosons.probability((0, 2)) - 1.0) < 1e-12
        assert abs(fermions.antibunch_probability() - 1.0) < 1e-12


@criterion(6, "Fock pipeline matches the labeled-particle oracle")
def test_06_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (2, 3, 4):
        for statistics in (BOSON, FERMION):
            for _ in range(100):
                v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
                v /= np.linalg.norm(v)
                fock = interfere(v, statistics)
                oracle = first_quantized_distribution(v, statistics)
                for p in set(fock.probabilities) | set(oracle.probabilities):
                    worst = max(worst,
                                abs(fock.probability(p) - oracle.probability(p)))
    assert worst < 1e-10


@criterion(7, "direction-average constructors match their closed forms")
def test_07_quadrature_cross_validation():
    grid = SphereQuadrature.gauss_product(25, 400)
    assert len(grid.directions) == 10_000
    aligned = quadrature_average(lambda om: aligned_direction_state(om, 2),
                                 grid)
    assert np.max(np.abs(aligned.matrix - aligned_mixture(2).matrix)) < 1e-8
    anti = quadrature_average(antialigned_direction_state, grid)
    assert np.max(np.abs(anti.matrix - antialigned_mixture().matrix)) < 1e-8


@criterion(8, "classical exclusion model reproduces the bound exactly")
def test_08_classical_equivalence():
    for n in range(2, 7):
        closed = 1.0 - (n + 1) / 2.0 ** (n + 1)
        assert abs(classical_pauli_success(n, "standard") - closed) < 1e-12
    print("\n  literal-reading comparison (recorded, not asserted):")
    print("  n  standard          literal           bound             "
          "literal deviation")
    for row in classical_comparison(6):
        print(f"  {row['n']}  {row['standard']:<16.12f}  "
              f"{row['literal']:<16.12f}  {row['bound']:<16.12f}  "
              f"{row['literal_deviation']:+.12f}")


@criterion(9, "purification keeps the direction and never shortens the arrow")
def test_09_purification_sweep():
    rng = np.random.default_rng(42)
    for _ in range(500):
        r = rng.uniform(0.05, 0.999)
        omega = BlochDirection(math.acos(rng.uniform(-1.0, 1.0)),
                               rng.uniform(0.0, 2.0 * math.pi))
        rho = qubit_density(r, omega)
        out, _ = purify_symmetric(rho)
        vec_in = bloch_vector(rho)
        vec_out = bloch_vector(out)
        r_in = float(np.linalg.norm(vec_in))
        r_out = float(np.linalg.norm(vec_out))
        assert r_out >= r_in - 1e-12
        sin_angle = np.linalg.norm(np.cross(vec_in, vec_out)) / (r_in * r_out)
        assert math.asin(min(1.0, sin_angle)) < 1e-10
    _, success = purify_symmetric(maximally_mixed(1))
    assert success == 0.75


@criterion(10, "two-copy interference detects entanglement")
def test_10_entanglement_detection():
    singlet = TwoQubitPureState(np.array([0.0, 1.0, -1.0, 0.0])
                                / math.sqrt(2))
    assert abs(detect_entanglement(singlet, FERMION) - 0.625) < 1e-10

    product = TwoQubitPureState.from_schmidt(0.0)
    marginal = partial_trace(product.density(), keep=(1,))
    dist = interfere(tensor(marginal, marginal), FERMION)
    assert abs(dist.antibunch_probability() - 1.0) < 1e-12

    sweep = [detect_entanglement(TwoQubitPureState.from_schmidt(lam), FERMION)
             for lam in np.linspace(0.0, 0.5, 50)]
    assert all(b >= a - 1e-12 for a, b in zip(sweep, sweep[1:]))


@criterion(11, "scan keeps arm counting at or below the bound")
def test_11_conjecture_scan():
    print("\n  gap record (values beyond three particles are data, "
          "not assertions):")
    print("  statistics  n  p_bs              p_helstrom        gap")
    for statistics in (FERMION, BOSON):
        records = scan_discrimination(6, statistics)
        for rec in records:
            print(f"  {rec.statistics.value:<10}  {rec.n}  "
                  f"{rec.p_bs:<16.12f}  {rec.p_helstrom:<16.12f}  "
                  f"{rec.gap:+.12f}")
            assert rec.p_bs <= rec.p_helstrom + 1e-10
            if statistics is FERMION and rec.n in (2, 3):
                assert abs(rec.gap) < 1e-10
