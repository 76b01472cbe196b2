import math

import numpy as np
import pytest

from statdisc.multiport import (FockState, MultiportUnitary, Statistics,
                                dft_unitary, evolve, interfere,
                                prepare_input, spatial_distribution)
from statdisc.states import aligned_mixture, antialigned_mixture, maximally_mixed

from oracles import first_quantized_distribution, symmetric_two_port

BOSON = Statistics.BOSON
FERMION = Statistics.FERMION


def max_pattern_deviation(d0, d1):
    patterns = set(d0.probabilities) | set(d1.probabilities)
    return max(abs(d0.probability(p) - d1.probability(p)) for p in patterns)


# ----------------------------------------------------------------- unitaries

def test_dft_two_port_is_the_half_reflector():
    u = dft_unitary(2)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    assert np.allclose(u.matrix, expected, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dft_unitary_is_balanced_and_unitary(n):
    u = dft_unitary(n)
    assert np.allclose(u.matrix.conj().T @ u.matrix, np.eye(n), atol=1e-13)
    assert np.allclose(np.abs(u.matrix), 1.0 / math.sqrt(n), atol=1e-13)


def test_multiport_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        MultiportUnitary(2, np.ones((2, 2)) / math.sqrt(2))


def test_multiport_rejects_unbalanced_unitary():
    with pytest.raises(ValueError, match="balanced"):
        MultiportUnitary(2, np.eye(2))


# ---------------------------------------------------------------- FockState

def test_fock_state_rejects_wrong_particle_count():
    with pytest.raises(ValueError, match="particles"):
        FockState(BOSON, 2, 3, {(1, 0, 1, 0): 1.0})


def test_fock_state_rejects_fermion_double_occupancy():
    with pytest.raises(ValueError, match="exceed"):
        FockState(FERMION, 2, 2, {(2, 0, 0, 0): 1.0})


def test_fock_state_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError, match="normalized"):
        FockState(BOSON, 2, 2, {(1, 0, 1, 0): 0.5})


def test_fock_state_rejects_negative_occupation():
    with pytest.raises(ValueError, match="non-negative"):
        FockState(BOSON, 2, 2, {(3, -1, 0, 0): 1.0})


# ------------------------------------------------------------ prepare_input

def test_prepare_input_pure_vector_single_member():
    ensemble = prepare_input(np.array([0.0, 1.0, 0.0, 0.0]), FERMION)
    assert len(ensemble) == 1
    weight, state = ensemble[0]
    assert weight == 1.0
    # arm 0 spin 0 occupies mode 0, arm 1 spin 1 occupies mode 3
    assert state.amplitudes == {(1, 0, 0, 1): 1.0}


def test_prepare_input_aligned_pair_has_three_members():
    ensemble = prepare_input(aligned_mixture(2), BOSON)
    assert len(ensemble) == 3
    for weight, _ in ensemble:
        assert abs(weight - 1.0 / 3.0) < 1e-12


def test_prepare_input_mixed_pair_has_four_members():
    ensemble = prepare_input(maximally_mixed(2), FERMION)
    assert len(ensemble) == 4
    for weight, _ in ensemble:
        assert abs(weight - 0.25) < 1e-12


def test_prepare_input_rejects_non_qubit_register():
    from statdisc.core import DensityMatrix
    rho = DensityMatrix(np.eye(3) / 3, (3,))
    with pytest.raises(ValueError, match="qubit"):
        prepare_input(rho, BOSON)


def test_prepare_input_rejects_bad_dimension():
    with pytest.raises(ValueError, match="power of two"):
        prepare_input(np.array([1.0, 0.0, 0.0]), BOSON)


def test_prepare_input_stops_at_the_capacity():
    from statdisc.core import CapacityError, DensityMatrix
    assert len(prepare_input(np.eye(2 ** 8)[5], BOSON)) == 1
    rho8 = DensityMatrix(np.eye(2 ** 8) / 2 ** 8, (2,) * 8)
    assert len(prepare_input(rho8, FERMION)) == 2 ** 8
    with pytest.raises(CapacityError):
        prepare_input(np.eye(2 ** 9)[5], BOSON)
    rho9 = DensityMatrix(np.eye(2 ** 9) / 2 ** 9, (2,) * 9)
    with pytest.raises(CapacityError):
        prepare_input(rho9, FERMION)


# ------------------------------------------------- two-particle interference

def test_identical_bosons_always_bunch():
    for internal in ([1, 0, 0, 0], [0, 0, 0, 1]):
        dist = interfere(np.array(internal, dtype=float), BOSON)
        bunched = dist.probability((2, 0)) + dist.probability((0, 2))
        assert abs(bunched - 1.0) < 1e-12
        assert dist.antibunch_probability() < 1e-12


def test_identical_fermions_always_antibunch():
    for internal in ([1, 0, 0, 0], [0, 0, 0, 1]):
        dist = interfere(np.array(internal, dtype=float), FERMION)
        assert abs(dist.antibunch_probability() - 1.0) < 1e-12


def test_opposite_internal_fermions_split_half_half():
    # derived from the first-quantized oracle before freezing
    dist = interfere(np.array([0.0, 1.0, 0.0, 0.0]), FERMION)
    assert abs(dist.probability((1, 1)) - 0.5) < 1e-12
    assert abs(dist.probability((2, 0)) - 0.25) < 1e-12
    assert abs(dist.probability((0, 2)) - 0.25) < 1e-12


def test_singlet_bosons_antibunch_and_triplet_bosons_bunch():
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    triplet = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
    assert abs(interfere(singlet, BOSON).antibunch_probability() - 1.0) < 1e-12
    d = interfere(triplet, BOSON)
    assert abs(d.probability((2, 0)) + d.probability((0, 2)) - 1.0) < 1e-12


def test_evolution_preserves_norm_for_random_states():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        u = dft_unitary(n)
        for stats in (BOSON, FERMION):
            for _ in range(10):
                v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
                (_, state), = prepare_input(v, stats)
                out = evolve(state, u)
                total = sum(abs(a) ** 2 for a in out.amplitudes.values())
                assert abs(total - 1.0) < 1e-12


def test_evolve_rejects_arm_mismatch():
    (_, state), = prepare_input(np.array([1.0, 0.0, 0.0, 0.0]), BOSON)
    with pytest.raises(ValueError, match="arms"):
        evolve(state, dft_unitary(3))


# --------------------------------------------------- distribution invariance

def test_distribution_ignores_global_phase():
    rng = np.random.default_rng(22)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    for stats in (BOSON, FERMION):
        d0 = interfere(v, stats)
        d1 = interfere(np.exp(1.234j) * v, stats)
        assert max_pattern_deviation(d0, d1) < 1e-13


def test_distribution_ignores_eigenbasis_choice():
    # remix the threefold-degenerate eigenspace and rebuild the ensemble
    rng = np.random.default_rng(23)
    sigma = antialigned_mixture()
    vals, vecs = np.linalg.eigh(sigma.matrix)
    assert np.allclose(vals, [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-12)
    for stats in (BOSON, FERMION):
        reference = interfere(sigma, stats)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(a)
        remixed = vecs[:, :3] @ q
        ensemble = [(1 / 6, prepare_input(remixed[:, i], stats)[0][1])
                    for i in range(3)]
        ensemble.append((1 / 2, prepare_input(vecs[:, 3], stats)[0][1]))
        u = dft_unitary(2)
        rebuilt = spatial_distribution([(w, evolve(s, u)) for w, s in ensemble])
        assert max_pattern_deviation(reference, rebuilt) < 1e-12


def test_two_port_convention_does_not_change_arm_counts():
    rng = np.random.default_rng(24)
    for stats in (BOSON, FERMION):
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            d_dft = interfere(v, stats, dft_unitary(2))
            d_sym = interfere(v, stats, symmetric_two_port())
            assert max_pattern_deviation(d_dft, d_sym) < 1e-12


def test_spatial_distribution_rejects_empty_ensemble():
    with pytest.raises(ValueError, match="empty"):
        spatial_distribution([])


# ------------------------------------------------------ first-quantized oracle

def test_oracle_agrees_on_hong_ou_mandel():
    same = np.array([1.0, 0.0, 0.0, 0.0])
    assert abs(first_quantized_distribution(same, BOSON)
               .probability((1, 1))) < 1e-12
    assert abs(first_quantized_distribution(same, FERMION)
               .probability((1, 1)) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("stats", [BOSON, FERMION])
def test_oracle_matches_fock_evolution_on_random_states(n, stats):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        d_fock = interfere(v, stats)
        d_first = first_quantized_distribution(v, stats)
        assert max_pattern_deviation(d_fock, d_first) < 1e-10


def test_oracle_matches_fock_evolution_on_mixed_states():
    # mixed state via the ensemble on the Fock side, by convexity of the
    # pure-state oracle on the other
    basis = np.eye(4)
    for stats in (BOSON, FERMION):
        d_fock = interfere(maximally_mixed(2), stats)
        oracle: dict = {}
        for idx in range(4):
            d = first_quantized_distribution(basis[idx], stats)
            for p, val in d.probabilities.items():
                oracle[p] = oracle.get(p, 0.0) + 0.25 * val
        for p in set(d_fock.probabilities) | set(oracle):
            assert abs(d_fock.probability(p) - oracle.get(p, 0.0)) < 1e-12
