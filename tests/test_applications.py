import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statdisc import applications
from statdisc.applications import (TwoQubitPureState, classical_comparison,
                                   classical_pauli_success,
                                   detect_entanglement, purify_symmetric,
                                   scan_discrimination)
from statdisc.core import SUM_TOL, CapacityError, partial_trace, tensor
from statdisc.discrimination import (Hypothesis, aligned_vs_mixed_bound,
                                     beam_splitter_discrimination)
from statdisc.multiport import Statistics, interfere
from statdisc.states import (BlochDirection, aligned_mixture, bloch_vector,
                             maximally_mixed, qubit_density)

from oracles import (enumerated_pauli_fraction, enumerated_pauli_success,
                     exclusion_mixed_probability, rational_pauli_success,
                     series_capped_routings)

BOSON = Statistics.BOSON
FERMION = Statistics.FERMION

SINGLET = TwoQubitPureState(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2))


# -------------------------------------------------------- two-qubit pure state

def test_schmidt_weight_of_singlet_and_product():
    assert abs(SINGLET.schmidt_lambda - 0.5) < 1e-12
    product = TwoQubitPureState(np.array([1.0, 0.0, 0.0, 0.0]))
    assert product.schmidt_lambda < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 0.5, allow_nan=False))
def test_schmidt_weight_roundtrips(lam):
    psi = TwoQubitPureState.from_schmidt(lam)
    assert abs(psi.schmidt_lambda - lam) < 1e-12


def test_schmidt_weight_agrees_with_reduced_spectrum():
    rng = np.random.default_rng(41)
    for _ in range(25):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = TwoQubitPureState(v / np.linalg.norm(v))
        reduced = partial_trace(psi.density(), keep=(1,))
        smallest = float(np.linalg.eigvalsh(reduced.matrix)[0])
        assert abs(psi.schmidt_lambda - smallest) < 1e-10


def test_two_qubit_state_rejects_bad_input():
    with pytest.raises(ValueError, match="normalized"):
        TwoQubitPureState(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="four"):
        TwoQubitPureState(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        TwoQubitPureState.from_schmidt(0.7)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_two_qubit_state_rejects_a_non_finite_amplitude(bad):
    # a NaN norm compares false with everything, so it must fail the check
    with pytest.raises(ValueError, match="normalized"):
        TwoQubitPureState(np.array([bad, 0.0, 0.0, 0.0]))


# ----------------------------------------------------- entanglement detection

def test_detection_of_maximally_entangled_marginals():
    assert abs(detect_entanglement(SINGLET, FERMION) - 0.625) < 1e-12
    assert abs(detect_entanglement(SINGLET, BOSON) - 0.625) < 1e-12


def test_detection_of_product_marginals_is_blind():
    product = TwoQubitPureState.from_schmidt(0.0)
    assert abs(detect_entanglement(product, FERMION) - 0.5) < 1e-12


def test_product_marginals_make_fermions_antibunch_with_certainty():
    product = TwoQubitPureState.from_schmidt(0.0)
    marginal = partial_trace(product.density(), keep=(1,))
    dist = interfere(tensor(marginal, marginal), FERMION)
    assert abs(dist.antibunch_probability() - 1.0) < 1e-12


def test_detection_grows_with_schmidt_weight():
    values = [detect_entanglement(TwoQubitPureState.from_schmidt(lam), FERMION)
              for lam in np.linspace(0.0, 0.5, 11)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert abs(values[0] - 0.5) < 1e-12
    assert abs(values[-1] - 0.625) < 1e-12


# ----------------------------------------------------------------- purification

def brute_force_purify(rho2x2):
    """Independent 4x4 oracle: literal matrices, no package machinery."""
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)
    proj = (np.eye(4) + swap) / 2
    joint = np.kron(rho2x2, rho2x2)
    projected = proj @ joint @ proj
    success = np.trace(projected).real
    reduced = np.trace((projected / success).reshape(2, 2, 2, 2),
                       axis1=1, axis2=3)
    return reduced, success


def test_purifying_the_maximally_mixed_state():
    out, success = purify_symmetric(maximally_mixed(1))
    assert success == 0.75
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-14)


def test_purifying_a_pure_state_changes_nothing():
    rho = qubit_density(1.0, BlochDirection(1.1, 0.4))
    out, success = purify_symmetric(rho)
    assert abs(success - 1.0) < 1e-12
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_purification_at_half_length_hits_the_frozen_values():
    # oracle numbers: success 13/16, output length 8/13
    rho = qubit_density(0.5, BlochDirection(0.0, 0.0))
    out, success = purify_symmetric(rho)
    assert abs(success - 13.0 / 16.0) < 1e-14
    assert abs(bloch_vector(out)[2] - 8.0 / 13.0) < 1e-14


def test_purification_matches_the_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        r = rng.uniform(0.0, 1.0)
        omega = BlochDirection(math.acos(rng.uniform(-1, 1)),
                               rng.uniform(0.0, 2.0 * math.pi))
        rho = qubit_density(r, omega)
        out, success = purify_symmetric(rho)
        oracle_out, oracle_success = brute_force_purify(rho.matrix)
        assert abs(success - oracle_success) < 1e-12
        assert np.max(np.abs(out.matrix - oracle_out)) < 1e-12


def test_purification_amplifies_along_the_same_axis():
    rng = np.random.default_rng(43)
    for _ in range(50):
        r = rng.uniform(0.05, 0.999)
        omega = BlochDirection(math.acos(rng.uniform(-1, 1)),
                               rng.uniform(0.0, 2.0 * math.pi))
        rho = qubit_density(r, omega)
        out, _ = purify_symmetric(rho)
        vec_in = bloch_vector(rho)
        vec_out = bloch_vector(out)
        r_out = np.linalg.norm(vec_out)
        assert r_out >= r - 1e-12
        # angle through the cross product; arccos of a dot is ill-conditioned
        sin_angle = np.linalg.norm(np.cross(vec_in, vec_out)) / (r * r_out)
        assert math.asin(min(1.0, sin_angle)) < 1e-10
        assert abs(r_out - 4.0 * r / (3.0 + r * r)) < 1e-12


def test_purification_rejects_multi_qubit_input():
    with pytest.raises(ValueError, match="single qubit"):
        purify_symmetric(maximally_mixed(2))


# ------------------------------------------------------------- classical model

@pytest.mark.parametrize("n", range(1, 9))
def test_standard_exclusion_reading_matches_the_closed_form(n):
    expected = 1.0 - (n + 1) / 2.0 ** (n + 1)
    assert classical_pauli_success(n, "standard") == expected


@pytest.mark.parametrize("interpretation, n",
                         [(reading, n) for reading in ("standard", "literal")
                          for n in range(1, 7)] + [("standard", 7)])
def test_exclusion_count_matches_the_enumeration(interpretation, n):
    assert classical_pauli_success(n, interpretation) == \
        enumerated_pauli_success(n, interpretation)


@pytest.mark.parametrize("interpretation", ["standard", "literal"])
@pytest.mark.parametrize("n", range(1, 9))
def test_integer_ratio_rounds_the_exact_fraction(n, interpretation):
    # one correctly rounded division gives the double of the exact value,
    # past the enumeration's reach at literal n = 7 and 8 too
    assert classical_pauli_success(n, interpretation) == \
        float(rational_pauli_success(n, interpretation))


@pytest.mark.parametrize("interpretation, n",
                         [(reading, n) for reading in ("standard", "literal")
                          for n in range(1, 7)] + [("standard", 7)])
def test_closed_count_fraction_matches_the_enumeration(interpretation, n):
    assert rational_pauli_success(n, interpretation) == \
        enumerated_pauli_fraction(n, interpretation)


def test_integer_routing_count_matches_the_fraction_series():
    # every entry of the one product, past the arms' room at the top too
    for n_arms in range(1, 11):
        for cap in range(1, n_arms + 1):
            size = n_arms + 2
            assert applications._capped_routings(n_arms, size, cap) == [
                series_capped_routings(n_arms, k, cap)
                for k in range(size + 1)], (n_arms, cap)


@settings(deadline=None)
@given(st.integers(1, 10), st.integers(0, 12), st.integers(1, 12))
def test_in_place_routing_pass_matches_the_fraction_series(n_arms, size, cap):
    # a size below the cap and a cap above the arm count included; a pass
    # that read an entry it had already updated would overcount
    assert applications._capped_routings(n_arms, size, cap) == [
        series_capped_routings(n_arms, k, cap) for k in range(size + 1)]


@given(st.integers(1, 10), st.integers(0, 12), st.integers(1, 12))
def test_routing_counts_meet_the_closed_forms_at_either_cap(n_arms, size,
                                                            cap):
    # one particle per arm leaves a falling factorial; a cap that k does not
    # exceed leaves every one of the n_arms ** k routings
    assert applications._capped_routings(n_arms, size, 1) == [
        math.perm(n_arms, k) for k in range(size + 1)]
    assert applications._capped_routings(n_arms, size, cap)[:cap + 1] == [
        n_arms ** k for k in range(min(cap, size) + 1)]


def test_literal_exclusion_reading_deviates():
    # frozen from exact Fraction enumeration
    assert classical_pauli_success(2, "literal") == 0.5
    assert abs(classical_pauli_success(3, "literal")
               - float(Fraction(49, 96))) < 1e-15
    for n in range(2, 6):
        assert classical_pauli_success(n, "literal") < \
            classical_pauli_success(n, "standard")


def test_classical_model_validates_input():
    with pytest.raises(CapacityError):
        classical_pauli_success(9)
    with pytest.raises(ValueError, match="interpretation"):
        classical_pauli_success(3, "loose")
    with pytest.raises(ValueError):
        classical_pauli_success(0)


def test_classical_comparison_table_shape():
    rows = classical_comparison(4)
    assert [row["n"] for row in rows] == [2, 3, 4]
    for row in rows:
        assert abs(row["standard_deviation"]) < 1e-12
        assert row["literal_deviation"] < -0.1


def test_classical_comparison_stops_at_the_capacity(monkeypatch):
    assert classical_comparison(8)[-1]["n"] == 8
    calls = []
    monkeypatch.setattr(applications, "classical_pauli_success",
                        lambda *args: calls.append(args) or 0.0)
    with pytest.raises(CapacityError):
        classical_comparison(9)
    assert calls == []


def test_classical_comparison_refuses_fewer_than_two_particles():
    with pytest.raises(ValueError, match="at least 2"):
        classical_comparison(1)


# ----------------------------------------------------------------------- scan

def test_scan_meets_the_bound_for_small_fermion_registers():
    records = scan_discrimination(3, FERMION)
    assert [rec.n for rec in records] == [1, 2, 3]
    for rec in records:
        assert abs(rec.gap) < 1e-10


def test_scan_records_positive_gap_for_four_bosons():
    records = scan_discrimination(4, BOSON)
    assert records[-1].gap > 1e-3
    assert all(rec.p_bs <= rec.p_helstrom + 1e-10 for rec in records)


def test_scan_gaps_are_pinned_up_to_the_largest_scanned_registers():
    # the scan the benchmark runs: fermions to n = 7, bosons to n = 6
    fermion = [rec.gap for rec in scan_discrimination(7, FERMION)]
    boson = [rec.gap for rec in scan_discrimination(6, BOSON)]
    # two and three particles meet the bound, up to rounding of either sign
    for gap in fermion[1:3] + boson[1:3]:
        assert abs(gap) <= SUM_TOL
    for gap, expected in zip(fermion[3:], (1 / 128, 1 / 160, 1 / 128,
                                           1 / 196)):
        assert abs(gap - expected) < 1e-10
    for gap, expected in zip(boson[3:], (1 / 32, 1 / 32, 5 / 128)):
        assert abs(gap - expected) < 1e-10


# the exact p_bs of each n, from a cyclotomic-integer evaluation of every
# output amplitude as determinants (fermions) or permanents (bosons)
EXACT_P_BS = {
    FERMION: ("1/2", "5/8", "3/4", "107/128", "9/10", "15/16", "1511/1568"),
    BOSON: ("1/2", "5/8", "3/4", "13/16", "7/8", "29/32"),
}


def ulps_off(value: float, exact: Fraction) -> Fraction:
    """How far ``value`` lies from ``exact``, in units in the last place of
    ``exact`` rounded to a float."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


@pytest.mark.parametrize("statistics", [FERMION, BOSON])
def test_scan_values_are_the_exact_rationals(statistics):
    exact = [Fraction(p) for p in EXACT_P_BS[statistics]]
    records = scan_discrimination(len(exact), statistics)
    for rec, p_bs in zip(records, exact, strict=True):
        bound = 1 - Fraction(rec.n + 1, 2 ** (rec.n + 1))
        # the worst seen is 52 ulp, at boson n = 6
        assert ulps_off(rec.p_bs, p_bs) <= 64, rec.n
        assert ulps_off(rec.p_helstrom, bound) <= 1, rec.n
        assert aligned_vs_mixed_bound(rec.n) == float(bound)


def test_scan_pattern_counts_are_the_closed_forms():
    # fermions: at most two per arm, k arms with two and k with none, the
    # central trinomial coefficient; bosons: n in n arms, C(2n - 1, n)
    for rec in scan_discrimination(7, FERMION):
        n = rec.n
        assert len(rec.strategy) == sum(
            math.comb(n, 2 * k) * math.comb(2 * k, k)
            for k in range(n // 2 + 1))
    for rec in scan_discrimination(6, BOSON):
        assert len(rec.strategy) == math.comb(2 * rec.n - 1, rec.n)


# the exact p_bs at n = 8, from the kernel's pattern probabilities rounded
# to their known denominators, each rounded distribution summing to 1
EXACT_P_BS_8 = {FERMION: "128207/131072", BOSON: "976355/1048576"}


def aligned_vs_mixed(n: int, statistics):
    """The scan's task at n alone; the shared states keep their answers, so
    the frontier checks at n = 8 run the kernel once per hypothesis."""
    return beam_splitter_discrimination(
        Hypothesis("H0", aligned_mixture(n), 0.5),
        Hypothesis("H1", maximally_mixed(n), 0.5), statistics)


@pytest.mark.frontier
@pytest.mark.parametrize("statistics", [FERMION, BOSON])
def test_eight_particle_values_are_the_exact_rationals(statistics):
    rec = aligned_vs_mixed(8, statistics)
    # measured 13 ulp below for fermions and 1 below for bosons
    assert ulps_off(rec.p_bs, Fraction(EXACT_P_BS_8[statistics])) <= 64
    assert rec.p_helstrom == aligned_vs_mixed_bound(8) == 1 - 9 / 2 ** 9


@pytest.mark.parametrize("n", [*range(1, 8),
                               pytest.param(8, marks=pytest.mark.frontier)])
def test_aligned_fermions_leave_one_per_arm_and_fix_p_bs(n):
    # aligned fermions share an internal state, so exclusion sends one
    # through each arm (Shchesnovich 2015; Tichy 2015): the strategy guesses
    # aligned on that pattern alone and errs on the mixed state's share of
    # it, which determinants of the DFT give without the kernel
    assert list(interfere(aligned_mixture(n), FERMION).probabilities) == [
        (1,) * n]
    p_bs = aligned_vs_mixed(n, FERMION).p_bs
    assert abs(p_bs - (1 - exclusion_mixed_probability(n) / 2)) <= 1e-14


def test_scan_validates_input():
    with pytest.raises(CapacityError):
        scan_discrimination(9, BOSON)
    with pytest.raises(ValueError):
        scan_discrimination(0, BOSON)
