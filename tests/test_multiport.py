import gc
import hashlib
import itertools
import math
import sys
import tracemalloc
import warnings
import weakref
from collections.abc import MutableMapping, MutableSet

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statdisc import multiport
from statdisc.core import (MAX_QUBITS, TOL, CapacityError, DensityMatrix,
                           symmetric_projector)
from statdisc.multiport import (FockState, MultiportUnitary,
                                OutcomeDistribution, Statistics, dft_unitary,
                                evolve, interfere, prepare_input,
                                spatial_distribution)
from statdisc.states import (BlochDirection, aligned_mixture,
                             antialigned_mixture, maximally_mixed)

from oracles import (_minors, aligned_direction_state, dict_evolve,
                     dict_expansion, dict_interfere,
                     dict_spatial_distribution, factorised_block,
                     factorised_distribution, first_quantized_distribution,
                     fock_ensemble, one_per_arm, symmetric_two_port)

BOSON = Statistics.BOSON
FERMION = Statistics.FERMION


def max_pattern_deviation(d0, d1):
    patterns = set(d0.probabilities) | set(d1.probabilities)
    return max(abs(d0.probability(p) - d1.probability(p)) for p in patterns)


def phased_dft(n, in_phases, out_phases):
    """D1 @ F @ D2: the DFT multiport with phases on its input and output arms."""
    d1 = np.diag(np.exp(1j * np.asarray(in_phases)))
    d2 = np.diag(np.exp(1j * np.asarray(out_phases)))
    return MultiportUnitary(d1 @ dft_unitary(n).matrix @ d2)


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
        MultiportUnitary(np.ones((2, 2)) / math.sqrt(2))


def test_multiport_rejects_unbalanced_unitary():
    with pytest.raises(ValueError, match="balanced"):
        MultiportUnitary(np.eye(2))


def test_multiport_rejects_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        MultiportUnitary(np.ones((2, 3)) / math.sqrt(2))
    # a single row would broadcast against the identity in the unitarity check
    with pytest.raises(ValueError, match="square"):
        MultiportUnitary(np.ones((1, 2)) / math.sqrt(2))
    # no arms: square, but below the one register rule
    with pytest.raises(ValueError, match="n must be at least 1"):
        MultiportUnitary(np.zeros((0, 0)))


def test_sizes_are_read_off_the_data():
    assert MultiportUnitary(dft_unitary(3).matrix).n == 3
    assert FockState(FERMION, {(1, 0, 0, 1): 1.0}).n_arms == 2
    assert OutcomeDistribution({(2, 0, 1): 1.0}).n_arms == 3
    with pytest.raises(TypeError):
        MultiportUnitary(dft_unitary(2).matrix, n=2)
    with pytest.raises(TypeError):
        FockState(FERMION, {(1, 0, 0, 1): 1.0}, n_arms=2)
    with pytest.raises(TypeError):
        OutcomeDistribution({(1, 1): 1.0}, n_arms=2)


def test_dft_unitary_is_one_object_per_n_up_to_the_capacity():
    assert dft_unitary(3) is dft_unitary(3)
    assert dft_unitary(8).n == 8
    with pytest.raises(CapacityError, match="n = 9 .* 8-qubit limit"):
        dft_unitary(9)


def _module_state():
    """Size of every mutable container and lru_cache held by a statdisc
    module."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "statdisc":
            continue
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            if isinstance(value, (MutableMapping, MutableSet, list)):
                sizes[name, attr] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[name, attr] = value.cache_info().currsize
    return sizes


def test_fresh_unitaries_leave_no_module_state_behind():
    rng = np.random.default_rng(31)
    rho = maximally_mixed(3)
    # phased_dft builds on the cached dft_unitary(3), one bounded entry
    dft_unitary(3)
    before = _module_state()
    freed = []
    for _ in range(10):
        u = phased_dft(3, rng.uniform(0, 2 * math.pi, 3),
                       rng.uniform(0, 2 * math.pi, 3))
        for stats in (BOSON, FERMION):
            interfere(rho, stats, u)
        freed.append(weakref.ref(u))
        del u
    gc.collect()
    assert _module_state() == before
    # the expansion memo goes with its unitary
    assert all(ref() is None for ref in freed)


def test_fresh_states_leave_no_module_state_behind():
    rng = np.random.default_rng(37)
    dft_unitary(3)
    before = _module_state()
    freed = []
    for _ in range(10):
        rho = DensityMatrix(_random_state(3, 2, rng))
        for stats in (BOSON, FERMION):
            interfere(rho, stats)
        assert set(multiport._answers[rho]) == {BOSON, FERMION}
        freed.append(weakref.ref(rho))
        del rho
    gc.collect()
    # the kept answers go with their states
    assert all(ref() is None for ref in freed)
    assert _module_state() == before
    # the fixed states, asked again and again, keep one answer per
    # statistics each
    fixed = (aligned_mixture(3), maximally_mixed(3), antialigned_mixture())
    for _ in range(2):
        for rho in fixed:
            for stats in (BOSON, FERMION, "boson", "fermion"):
                interfere(rho, stats)
    key = ("statdisc.multiport", "_answers")
    assert _module_state()[key] - before[key] <= len(fixed)
    assert all(set(multiport._answers[rho]) == {BOSON, FERMION}
               for rho in fixed)


def test_the_fixed_states_keep_module_state_within_the_capacity():
    # one state per n up to the cap: each cache grows by at most
    # MAX_QUBITS entries, and asking again adds nothing
    before = _module_state()
    for _ in range(2):
        for n in range(1, MAX_QUBITS + 1):
            aligned_mixture(n)
            maximally_mixed(n)
        antialigned_mixture()
        after = _module_state()
        assert all(size - before.get(key, 0) <= MAX_QUBITS
                   for key, size in after.items())
    assert _module_state() == after


def test_a_repeated_call_adds_nothing_to_the_memo():
    # a phased DFT after a default call: the phased answer, kept nowhere
    u = phased_dft(3, [0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
    for rho in (aligned_mixture(3), maximally_mixed(3)):
        for stats in (BOSON, FERMION):
            kept = interfere(rho, stats)
            answers = dict(multiport._answers[rho])
            first = interfere(rho, stats, u)
            expansions = len(u._expansions)
            again = interfere(rho, stats, u)
            assert len(u._expansions) == expansions
            assert first is not kept and again is not first
            assert multiport._answers[rho] == answers
            oracle = sorted(dict_interfere(rho, stats, u).probabilities.items())
            assert list(first.probabilities.items()) == oracle
            assert list(again.probabilities.items()) == oracle
            assert interfere(rho, stats) is kept


def test_kept_answers_stay_within_the_live_states():
    # every subset of the eight basis states, as a vector and as a fresh
    # density matrix: the memo holds the live state's answer at most, with
    # no budget, and nothing for a vector
    before = len(multiport._answers)
    for mask in range(1, 2 ** 8):
        v = np.array([(mask >> i) & 1 for i in range(8)], dtype=float)
        held = len(multiport._answers)
        interfere(v, BOSON)
        assert len(multiport._answers) == held
        rho = DensityMatrix(np.diag(v / v.sum()))
        interfere(rho, BOSON)
        assert len(multiport._answers) == before + 1
        assert set(multiport._answers[rho]) == {BOSON}
    del rho
    gc.collect()
    assert len(multiport._answers) == before


def test_the_expansion_memo_holds_one_entry_per_statistics():
    # every subset of the eight basis states, for both statistics: the memo
    # keeps the expansions of all 2**3 basis indices per statistics,
    # whatever the supports met
    u = phased_dft(3, [0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
    for stats in (BOSON, FERMION):
        for mask in range(1, 2 ** 8):
            v = np.array([(mask >> i) & 1 for i in range(8)], dtype=float)
            interfere(v, stats, u)
    assert set(u._expansions) == {BOSON, FERMION}
    assert all(e.sizes.size == 2 ** 3 for e in u._expansions.values())


def test_the_answers_of_both_statistics_at_five_particles_stay_kept(
        monkeypatch):
    # a repeated call on a shared state through the default multiport
    # returns the kept answer itself: it neither loads the state nor merges
    # a term, and a statistics given by its value finds the same entry
    states = (aligned_mixture(5), maximally_mixed(5))
    kept = {(rho, stats): interfere(rho, stats)
            for rho in states for stats in (BOSON, FERMION)}

    def refuse(*args):
        raise AssertionError("a kept answer was computed again")

    monkeypatch.setattr(multiport, "prepare_input", refuse)
    monkeypatch.setattr(multiport, "_merge", refuse)
    for (rho, stats), answer in kept.items():
        assert interfere(rho, stats) is answer
        assert interfere(rho, stats.value) is answer
        assert set(multiport._answers[rho]) == {BOSON, FERMION}


def test_a_state_vector_is_never_kept(monkeypatch):
    v = np.random.default_rng(43).normal(size=8) + 0j
    before = len(multiport._answers)
    merges = []
    merge = multiport._merge
    monkeypatch.setattr(multiport, "_merge",
                        lambda *args: merges.append(1) or merge(*args))
    for stats in (BOSON, FERMION):
        first = interfere(v, stats)
        again = interfere(v, stats)
        assert again is not first
        assert list(again.probabilities.items()) == list(
            first.probabilities.items())
    assert len(merges) == 4
    assert len(multiport._answers) == before


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kept_answers_are_the_dict_loop_bit_for_bit(n):
    states = [aligned_mixture(n), maximally_mixed(n)]
    if n == 2:
        states.append(antialigned_mixture())
    for rho in states:
        for stats in (BOSON, FERMION):
            interfere(rho, stats)
            kept = interfere(rho, stats)
            assert kept is multiport._answers[rho][stats]
            assert list(kept.probabilities.items()) == sorted(
                dict_interfere(rho, stats).probabilities.items())


# ---------------------------------------------------------------- FockState

def test_fock_state_rejects_wrong_particle_count():
    with pytest.raises(ValueError, match="particles"):
        FockState(BOSON, {(1, 0, 1, 0): 0.6, (1, 0, 0, 0): 0.8})


def test_fock_state_rejects_configurations_of_different_mode_counts():
    with pytest.raises(ValueError, match="4 modes"):
        FockState(BOSON, {(1, 0, 1, 0): 0.6, (1, 0, 1, 0, 0, 0): 0.8})
    # an odd mode count does not split into arms
    with pytest.raises(ValueError, match="2 modes"):
        FockState(BOSON, {(1, 0, 1): 1.0})


def test_fock_state_rejects_fermion_double_occupancy():
    with pytest.raises(ValueError, match="exceed"):
        FockState(FERMION, {(2, 0, 0, 0): 1.0})


def test_fock_state_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError, match="normalized"):
        FockState(BOSON, {(1, 0, 1, 0): 0.5})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fock_state_rejects_a_non_finite_amplitude(bad):
    with pytest.raises(ValueError, match="normalized"):
        FockState(BOSON, {(1, 0, 1, 0): bad})


def test_fock_state_rejects_negative_occupation():
    with pytest.raises(ValueError, match="non-negative"):
        FockState(BOSON, {(3, -1, 0, 0): 1.0})


def test_fock_state_rejects_no_configuration():
    for stats in (BOSON, FERMION):
        with pytest.raises(ValueError, match="at least one configuration"):
            FockState(stats, {})


def test_evolve_refuses_nine_arms_before_any_expansion(monkeypatch):
    # no 9-arm multiport exists, so a 9-arm state meets the arm check
    calls = []
    expansions = multiport._expansions
    monkeypatch.setattr(multiport, "_expansions", lambda statistics, u:
                        calls.append(u.n) or expansions(statistics, u))
    nine = FockState(FERMION, {(1, 0) * 9: 1.0})
    assert nine.n_arms == 9
    for u in (dft_unitary(MAX_QUBITS), dft_unitary(2)):
        with pytest.raises(ValueError, match=f"each of its {u.n} arms"):
            evolve(nine, u)
    with pytest.raises(ValueError, match="each of its 2 arms"):
        evolve(FockState(BOSON, {(9, 0, 0, 0): 1.0}), dft_unitary(2))
    assert calls == []


# ------------------------------------------------------------ prepare_input

def test_prepare_input_pure_vector_single_member():
    v = np.array([0.0, 2.0, 0.0, 0.0])
    ensemble = prepare_input(v)
    assert len(ensemble) == 1
    weight, vec = ensemble[0]
    assert weight == 1.0
    assert vec.tolist() == [0.0, 1.0, 0.0, 0.0]
    # basis index 1: arm 0 spin 0 occupies mode 0, arm 1 spin 1 mode 3
    (_, state), = fock_ensemble(v, FERMION)
    assert state.amplitudes == {(1, 0, 0, 1): 1.0}


def test_prepare_input_aligned_pair_has_three_members():
    ensemble = prepare_input(aligned_mixture(2))
    assert len(ensemble) == 3
    for weight, _ in ensemble:
        assert abs(weight - 1.0 / 3.0) < 1e-12


def test_prepare_input_mixed_pair_has_four_members():
    ensemble = prepare_input(maximally_mixed(2))
    assert len(ensemble) == 4
    for weight, _ in ensemble:
        assert abs(weight - 0.25) < 1e-12


@pytest.mark.parametrize("n, eps", [
    (7, 1.27e-10), pytest.param(8, 2.53e-10, marks=pytest.mark.frontier)])
def test_white_noise_below_tol_per_eigenvalue_keeps_its_mass(n, eps):
    # each of the 2**n - 1 noise eigenvalues, eps / 2**n, is at most TOL,
    # but together they hold more than SUM_TOL: dropping each of them lost
    # that mass, and the distribution was refused as not summing to one
    zeros = np.zeros(2 ** n)
    zeros[0] = 1.0
    rho = DensityMatrix((1.0 - eps) * np.outer(zeros, zeros)
                        + eps * np.eye(2 ** n) / 2 ** n)
    assert max_pattern_deviation(interfere(rho, FERMION),
                                 interfere(zeros, FERMION)) <= 2 * eps
    assert abs(sum(w for w, _ in prepare_input(rho)) - 1.0) <= TOL


def test_prepare_input_rejects_non_qubit_register():
    from statdisc.core import DensityMatrix
    with pytest.raises(ValueError, match="qubit"):
        rho = DensityMatrix(np.eye(3) / 3)
        prepare_input(rho)


def test_prepare_input_rejects_the_zero_vector():
    with pytest.raises(ValueError, match="nonzero"):
        prepare_input(np.zeros(4))


def test_prepare_input_rejects_bad_dimension():
    with pytest.raises(ValueError, match="power of two"):
        prepare_input(np.array([1.0, 0.0, 0.0]))
    # a bare density matrix would otherwise read as a 4-qubit state vector
    with pytest.raises(ValueError, match="DensityMatrix"):
        interfere(np.eye(4) / 4, FERMION)
    # refused before the norm, which would warn and then lose every entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in ([np.nan, 0, 0, 0], [np.inf, 0, 0, 0], [1, np.nan, 0, 0]):
            with pytest.raises(ValueError, match="must be finite"):
                interfere(np.array(v), BOSON)


def test_statistics_may_be_given_as_its_value():
    # both spins up: bosons bunch, fermions antibunch
    v = np.array([1.0, 0.0, 0.0, 0.0])
    for stats in Statistics:
        assert (interfere(v, stats.value).probabilities
                == interfere(v, stats).probabilities)
        (_, state), = fock_ensemble(v, stats.value)
        assert state.statistics is stats
    with pytest.raises(ValueError, match="fermionic"):
        interfere(v, "fermionic")


def test_prepare_input_stops_at_the_capacity():
    from statdisc.core import CapacityError, DensityMatrix
    assert len(prepare_input(np.eye(2 ** 8)[5])) == 1
    rho8 = DensityMatrix(np.eye(2 ** 8) / 2 ** 8)
    assert len(prepare_input(rho8)) == 2 ** 8
    with pytest.raises(CapacityError):
        prepare_input(np.eye(2 ** 9)[5])
    with pytest.raises(CapacityError):
        rho9 = DensityMatrix(np.eye(2 ** 9) / 2 ** 9)
        prepare_input(rho9)


def test_interfere_builds_no_fock_state(monkeypatch):
    # eigenvectors go to the kernel as basis indices and amplitudes
    def refuse(self):
        raise AssertionError("interfere built a FockState")

    monkeypatch.setattr(FockState, "__post_init__", refuse)
    v = np.random.default_rng(7).normal(size=8) + 0j
    for internal in (maximally_mixed(3), aligned_mixture(3), v):
        for stats in (BOSON, FERMION):
            assert interfere(internal, stats).probabilities


def test_interfere_loads_through_the_module_prepare_input_once(monkeypatch):
    # the benchmark's tracer counts calls and members at this attribute
    calls = []
    original = multiport.prepare_input

    def counted(internal):
        calls.append(internal)
        return original(internal)

    monkeypatch.setattr(multiport, "prepare_input", counted)
    # a fresh state, which no earlier call has answered
    rho = DensityMatrix(maximally_mixed(2).matrix)
    for stats in (BOSON, FERMION):
        for internal in (rho, np.array([0.0, 1.0, 0.0, 0.0])):
            calls.clear()
            interfere(internal, stats)
            assert len(calls) == 1 and calls[0] is internal
        # the state's kept answer needs no load
        calls.clear()
        interfere(rho, stats)
        assert calls == []


def test_each_statistics_eigendecomposes_a_density_matrix_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: calls.append(m.shape) or eigh(m))
    rho = DensityMatrix(_random_state(3, 2, np.random.default_rng(5)))
    assert calls == []
    for stats in (BOSON, FERMION):
        # the first default-multiport call loads the state, and its kept
        # answer spares every later one the eigensolve
        calls.clear()
        interfere(rho, stats)
        assert calls == [(8, 8)]
        calls.clear()
        interfere(rho, stats)
        interfere(rho, stats.value)
        assert calls == []


def test_each_load_is_the_callers_own():
    for rho in (aligned_mixture(3), DensityMatrix(np.eye(4) / 4)):
        answer = interfere(rho, FERMION)
        before = list(answer.probabilities.items())
        first = prepare_input(rho)
        fresh = [(w, v.tobytes()) for w, v in first]
        for _, vec in first:
            vec[:] = 0.0
        first.clear()
        assert [(w, v.tobytes()) for w, v in prepare_input(rho)] == fresh
        assert interfere(rho, FERMION) is answer
        assert list(answer.probabilities.items()) == before


def test_a_density_matrix_keeps_nothing_but_its_matrix():
    rho = DensityMatrix(_random_state(2, 3, np.random.default_rng(11)))
    for stats in (BOSON, FERMION):
        interfere(rho, stats)
    prepare_input(rho)
    assert list(vars(rho)) == ["matrix"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_two_loads_of_a_state_agree_byte_for_byte(n):
    states = [aligned_mixture(n), maximally_mixed(n)]
    if n == 2:
        states.append(antialigned_mixture())
    for rho in states:
        prepare_input(rho)
        kept = prepare_input(rho)
        fresh = prepare_input(DensityMatrix(rho.matrix))
        assert [(w, v.tobytes()) for w, v in kept] == [
            (w, v.tobytes()) for w, v in fresh]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from([BOSON, FERMION]),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_an_answer_memo_hit_equals_a_fresh_states_answer(n, stats, rank,
                                                         seed):
    rho = DensityMatrix(_random_state(n, rank, np.random.default_rng(seed)))
    interfere(rho, stats)
    kept = interfere(rho, stats)
    fresh = interfere(DensityMatrix(rho.matrix), stats)
    assert list(kept.probabilities.items()) == list(
        fresh.probabilities.items())


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
                (_, state), = fock_ensemble(v, stats)
                out = evolve(state, u)
                total = sum(abs(a) ** 2 for a in out.amplitudes.values())
                assert abs(total - 1.0) < 1e-12


def test_evolve_rejects_arm_mismatch():
    (_, state), = fock_ensemble(np.array([1.0, 0.0, 0.0, 0.0]), BOSON)
    with pytest.raises(ValueError, match="arms"):
        evolve(state, dft_unitary(3))


def test_evolve_takes_one_particle_per_arm(monkeypatch):
    # two piled bosons, too few particles, two in one arm, too many arms,
    # and a register of three qubits sent to interfere through two arms:
    # each is refused before anything is expanded or merged
    def refuse(*args):
        raise AssertionError("a refused input was merged")

    monkeypatch.setattr(multiport, "_merge", refuse)
    u = MultiportUnitary(dft_unitary(2).matrix)
    for config in [(2, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0),
                   (1, 0, 0, 1, 1, 0)]:
        with pytest.raises(ValueError, match="arms"):
            evolve(FockState(BOSON, {config: 1.0}), u)
    with pytest.raises(ValueError, match="each of its 2 arms"):
        interfere(np.eye(2 ** 3)[0], BOSON, u)
    assert not u._expansions


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
        ensemble = [(1 / 6, fock_ensemble(remixed[:, i], stats)[0][1])
                    for i in range(3)]
        ensemble.append((1 / 2, fock_ensemble(vecs[:, 3], stats)[0][1]))
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


# Phases on the input arms give every one-per-arm configuration the same
# global phase; phases on the output arms only rephase each output
# configuration.  Neither moves an arm-count probability.
@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([BOSON, FERMION]),
       st.lists(st.floats(0.0, 2.0 * math.pi), min_size=6, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_arm_phases_do_not_change_arm_counts(n, stats, phases, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    u = phased_dft(n, phases[:n], phases[3:3 + n])
    assert max_pattern_deviation(interfere(v, stats, u),
                                 interfere(v, stats)) < 1e-12


# Both hypotheses up to the largest registers Tier-1 expands, and at the
# cap under the frontier marker
_HYPOTHESIS_SIZES = ([(n, FERMION) for n in range(1, 8)]
                     + [(n, BOSON) for n in range(1, 7)]
                     + [pytest.param(8, stats, marks=pytest.mark.frontier)
                        for stats in (FERMION, BOSON)])


def _check_zero_transmission_law(internal, n, stats):
    # Tichy et al., PRL 104, 220405: fully indistinguishable particles, one
    # per arm of the n-arm Fourier multiport, only leave in patterns with
    # sum_b b * m_b = 0 mod n; identical fermions leave one per arm
    dist = interfere(internal, stats)
    if stats is FERMION:
        assert set(dist.probabilities) == {(1,) * n}
        return
    off_law = [p for pattern, p in dist.probabilities.items()
               if sum(b * m for b, m in enumerate(pattern)) % n]
    assert max(off_law, default=0.0) < 1e-12


def _stats_first(size):
    """An (n, stats) entry of ``_HYPOTHESIS_SIZES`` as a (stats, n)
    parameter, so that its id reads the statistics first."""
    n, stats = getattr(size, "values", size)
    return pytest.param(stats, n, marks=getattr(size, "marks", ()))


@pytest.mark.parametrize("stats, n", map(_stats_first, _HYPOTHESIS_SIZES))
def test_aligned_mixture_obeys_the_zero_transmission_law(n, stats):
    _check_zero_transmission_law(aligned_mixture(n), n, stats)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.sampled_from([BOSON, FERMION]),
       st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi,
                                           exclude_max=True))
def test_aligned_directions_obey_the_zero_transmission_law(n, stats,
                                                           theta, phi):
    omega = BlochDirection(theta, phi)
    _check_zero_transmission_law(aligned_direction_state(omega, n), n, stats)


def _check_bunching_law(rho, stats, unitary=None):
    # Shchesnovich, PRL 116, 123601: all n bosons leave arm b with
    # probability n! prod_a |u_ab|^2 Tr(rho P_sym), for any state and any
    # u; fermions need the antisymmetric part instead, which is all of one
    # qubit, I - P_sym of two and nothing of three or more
    n = rho.n_qubits
    u = dft_unitary(n) if unitary is None else unitary
    sym = np.trace(symmetric_projector(n) @ rho.matrix).real
    if stats is BOSON or n == 1:
        part = sym
    else:
        part = 1.0 - sym if n == 2 else 0.0
    dist = interfere(rho, stats, unitary)
    for b in range(n):
        bunched = tuple(n * (a == b) for a in range(n))
        law = (math.factorial(n) * np.prod(np.abs(u.matrix[:, b]) ** 2)
               * part)
        assert abs(dist.probability(bunched) - law) <= TOL


@pytest.mark.parametrize("n, stats", _HYPOTHESIS_SIZES)
def test_the_hypotheses_obey_the_bunching_law(n, stats):
    for state in (aligned_mixture, maximally_mixed):
        _check_bunching_law(state(n), stats)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.sampled_from([BOSON, FERMION]),
       st.lists(st.floats(0.0, 2.0 * math.pi), min_size=10, max_size=10),
       st.integers(0, 2 ** 32 - 1))
def test_random_states_obey_the_bunching_law(n, stats, phases, seed):
    rho = DensityMatrix(_random_state(n, 3, np.random.default_rng(seed)))
    _check_bunching_law(rho, stats, phased_dft(n, phases[:n], phases[5:5 + n]))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.sampled_from([BOSON, FERMION]),
       st.integers(0, 2 ** 32 - 1))
def test_rotating_the_input_arms_does_not_change_arm_counts(n, stats, seed):
    # u[a - 1, b] = u[a, b] exp(-2i pi b / n): a cyclic shift of the input
    # arms only puts phases on the output arms of the Fourier multiport
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    # the qubit that entered arm a now enters arm a - 1 (mod n)
    rotated = np.moveaxis(v.reshape((2,) * n), 0, -1).reshape(-1)
    assert max_pattern_deviation(interfere(rotated, stats),
                                 interfere(v, stats)) < 1e-12


def test_spatial_distribution_rejects_empty_ensemble():
    with pytest.raises(ValueError, match="empty"):
        spatial_distribution([])


def test_spatial_distribution_rejects_members_of_different_arm_counts():
    two, three = (fock_ensemble(np.eye(2 ** n)[0], BOSON) for n in (2, 3))
    with pytest.raises(ValueError):
        spatial_distribution(two + three)


def test_outcome_distribution_rejects_patterns_of_different_lengths():
    with pytest.raises(ValueError, match="cover 2 arms"):
        OutcomeDistribution({(1, 1): 0.5, (1, 1, 0): 0.5})
    # no pattern at all has no arm count and no probability to sum
    with pytest.raises(ValueError, match="sum to one"):
        OutcomeDistribution({})


def test_outcome_distribution_rejects_a_negative_probability():
    # the total is one, so the sign alone refuses it
    with pytest.raises(ValueError, match="negative probability"):
        OutcomeDistribution({(0, 2): -0.5, (2, 0): 1.5})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_outcome_distribution_rejects_a_non_finite_probability(bad):
    with pytest.raises(ValueError, match="sum to one"):
        OutcomeDistribution({(1,): bad})


def test_outcome_probabilities_are_read_only():
    given = {(0, 2): 0.25, (2, 0): 0.25, (1, 1): 0.5}
    dist = OutcomeDistribution(given)
    with pytest.raises(TypeError):
        dist.probabilities[(1, 1)] = 1.0
    # the distribution keeps its own copy of the dict it was given
    given[(1, 1)] = 1.0
    assert dist.probabilities == {(0, 2): 0.25, (2, 0): 0.25, (1, 1): 0.5}
    assert list(dist.probabilities.items()) == [
        ((0, 2), 0.25), ((2, 0), 0.25), ((1, 1), 0.5)]
    assert dist.probability([1, 1]) == 0.5
    assert dist.probability((0, 1)) == 0.0
    # so is every answer interfere returns, the kept ones included
    for internal in (maximally_mixed(2), np.array([0.0, 1.0, 0.0, 0.0])):
        with pytest.raises(TypeError):
            interfere(internal, FERMION).probabilities[(1, 1)] = 1.0


# ------------------------------------------------ excitation-block lemmas

def _random_state(n, rank, rng):
    a = (rng.normal(size=(2 ** n, rank))
         + 1j * rng.normal(size=(2 ** n, rank)))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _pinched(rho):
    """rho with its coherences between different excitation numbers cut."""
    k = np.array([idx.bit_count() for idx in range(len(rho))])
    return np.where(k[:, None] == k[None, :], rho, 0.0)


def _random_qubit_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated(rho, v, n_rotated):
    """rho under v on the first ``n_rotated`` qubits, identity on the rest."""
    n = len(rho).bit_length() - 1
    op = np.eye(1)
    for qubit in range(n):
        op = np.kron(op, v if qubit < n_rotated else np.eye(2))
    return op @ rho @ op.conj().T


# Arm counts trace out the internal state, and spin-0 and spin-1 particles
# never share a mode, so only the blocks of rho between strings of equal
# Hamming weight reach the arm counts, and a rotation of every internal
# state alike cannot move them.
@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.sampled_from([BOSON, FERMION]),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_coherences_between_excitation_numbers_do_not_reach_arm_counts(
        n, stats, rank, seed):
    rho = _random_state(n, rank, np.random.default_rng(seed))
    assert max_pattern_deviation(interfere(DensityMatrix(rho), stats),
                                 interfere(DensityMatrix(_pinched(rho)), stats)
                                 ) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.sampled_from([BOSON, FERMION]),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_a_global_internal_rotation_does_not_change_arm_counts(
        n, stats, rank, seed):
    rng = np.random.default_rng(seed)
    rho = _random_state(n, rank, rng)
    rotated = _rotated(rho, _random_qubit_unitary(rng), n)
    assert max_pattern_deviation(interfere(DensityMatrix(rho), stats),
                                 interfere(DensityMatrix(rotated), stats)
                                 ) < 1e-12


def test_rotating_one_qubit_does_change_arm_counts():
    # the rotation lemma needs every particle rotated alike: rotating only
    # the particle in arm 0 makes it partly distinguishable from the rest
    rng = np.random.default_rng(5)
    rho = _random_state(3, 2, rng)
    rotated = _rotated(rho, _random_qubit_unitary(rng), 1)
    assert max_pattern_deviation(interfere(DensityMatrix(rho), BOSON),
                                 interfere(DensityMatrix(rotated), BOSON)
                                 ) > 1e-3


# ------------------------------------- symmetries of the Fourier multiport

def _dihedral_images(pattern):
    """The arm counts after each rotation of the arms, and after each
    rotation of their reflection a -> -a (mod n), which keeps arm 0."""
    reflected = pattern[:1] + pattern[:0:-1]
    return {m[k:] + m[:k] for m in (pattern, reflected)
            for k in range(len(pattern))}


def _check_dihedral_symmetry(d):
    for pattern, p in d.probabilities.items():
        for image in _dihedral_images(pattern):
            assert abs(d.probability(image) - p) <= TOL


# u[a, b + k] = u[a, b] exp(2i pi a k / n) puts a phase on each input arm,
# which holds one particle, so rotating the output arms is a global phase;
# u[a, -b] = u[-a, b] permutes the input arms, which a state symmetric
# under qubit permutations does not see.
@pytest.mark.parametrize("n, stats", _HYPOTHESIS_SIZES)
def test_the_hypotheses_keep_the_dihedral_symmetry_of_the_dft(n, stats):
    for state in (aligned_mixture, maximally_mixed):
        _check_dihedral_symmetry(interfere(state(n), stats))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.sampled_from([BOSON, FERMION]),
       st.integers(0, 2 ** 32 - 1))
def test_symmetric_states_keep_the_dihedral_symmetry_of_the_dft(n, stats,
                                                                 seed):
    # a mixture of aligned directions is symmetric under qubit permutations
    rng = np.random.default_rng(seed)
    rho = sum(weight * aligned_direction_state(BlochDirection(
        math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)),
        n).matrix for weight in rng.dirichlet(np.ones(3)))
    _check_dihedral_symmetry(interfere(DensityMatrix(rho), stats))


# The aligned mixture averages |w><w| ** n over directions w, and a global
# internal rotation does not reach the arm counts, so it counts as the
# string |0...0>.
@pytest.mark.parametrize("n, stats", _HYPOTHESIS_SIZES)
def test_the_aligned_hypothesis_counts_as_the_string_of_zeros(n, stats):
    zeros = np.zeros(2 ** n)
    zeros[0] = 1.0
    assert max_pattern_deviation(interfere(aligned_mixture(n), stats),
                                 interfere(zeros, stats)) <= 1e-14


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


def test_oracle_refuses_registers_beyond_six_qubits(monkeypatch):
    # refused before its (2n)**n wavefunction exists: 1.7 GB at n = 7
    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert math.prod(np.atleast_1d(shape)) < 10 ** 7
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)
    with pytest.raises(ValueError, match="n = 6"):
        first_quantized_distribution(np.eye(2 ** 7)[0], BOSON)


def test_the_oracles_take_statistics_as_its_value():
    # given "fermion", the oracles once ran the boson formula: 10 patterns
    # of three particles, not 7
    rng = np.random.default_rng(64)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    rho = aligned_mixture(3)
    u = dft_unitary(3)
    assert len(factorised_distribution(rho, "fermion").probabilities) == 7
    for stats in (BOSON, FERMION):
        for oracle, internal in ((first_quantized_distribution, v),
                                 (factorised_distribution, rho)):
            assert (list(oracle(internal, stats.value).probabilities.items())
                    == list(oracle(internal, stats).probabilities.items()))
        for k in range(4):
            for a, b in zip(factorised_block(stats.value, u, k),
                            factorised_block(stats, u, k)):
                assert np.array_equal(a, b)
            values, rows, counts = _minors(u.matrix, k, stats.value)
            expected = _minors(u.matrix, k, stats)
            assert np.array_equal(values, expected[0])
            assert rows == expected[1]
            assert np.array_equal(counts, expected[2])


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


# ------------------------------------------------------- factorised oracle

def _random_phased_dft(n, rng):
    """A phased DFT with its input arms shuffled: not symmetric, so a
    transposed u changes its arm counts, where input phases alone only
    put a global phase on one particle per arm."""
    u = phased_dft(n, rng.uniform(0, 6, n), rng.uniform(0, 6, n))
    return MultiportUnitary(u.matrix[rng.permutation(n)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("stats", [BOSON, FERMION])
def test_factorised_amplitudes_are_those_of_evolve(n, stats):
    # amplitude by amplitude, signs included, on a multiport that is not
    # symmetric, so a transposed u shows; interference zeros are absent
    # from evolve's output and near zero in the factorised one
    u = _random_phased_dft(n, np.random.default_rng(60 + n))
    configs = one_per_arm(n)
    for k in range(n + 1):
        block, t, counts0, counts1 = factorised_block(stats, u, k)
        for g, index in enumerate(block.tolist()):
            out = evolve(FockState(stats, {configs[index]: 1.0}), u)
            for b0, c0 in enumerate(counts0.tolist()):
                for b1, c1 in enumerate(counts1.tolist()):
                    config = tuple(x for pair in zip(c0, c1) for x in pair)
                    assert abs(out.amplitudes.get(config, 0.0)
                               - t[b0, b1, g]) <= TOL


@pytest.mark.parametrize("n, stats", [(n, FERMION) for n in range(1, 8)]
                         + [(n, BOSON) for n in range(1, 7)])
def test_factorised_oracle_matches_interfere_on_the_hypotheses(n, stats):
    # up to the dict loop's reach: fermion 7, boson 6
    for state in (aligned_mixture(n), maximally_mixed(n)):
        assert max_pattern_deviation(interfere(state, stats),
                                     factorised_distribution(state, stats)
                                     ) <= TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("stats", [BOSON, FERMION])
def test_factorised_oracle_matches_interfere_on_random_states(n, stats):
    rng = np.random.default_rng(70 + n)
    for rank in (1, 2, 3):
        u = _random_phased_dft(n, rng)
        rho = DensityMatrix(_random_state(n, rank, rng))
        assert max_pattern_deviation(interfere(rho, stats, u),
                                     factorised_distribution(rho, stats, u)
                                     ) <= TOL


# --------------------------------------------------------- dict-loop oracle

@pytest.mark.parametrize("n, stats", [(n, stats) for n in range(1, 7)
                                      for stats in (BOSON, FERMION)]
                         + [(7, FERMION)])
def test_expansions_are_the_dict_loop_bit_for_bit(n, stats):
    # same output configurations in the same order, same amplitudes by ==;
    # all 2**n configurations, expanded together on a fresh memo so that
    # they share their creation prefixes, listed by basis index.  The DFT
    # is symmetric, u[a, b] == u[b, a], so up to six particles a phased DFT
    # also runs, which tells the input arm from the output arm.
    rng = np.random.default_rng(n)
    unitaries = [MultiportUnitary(dft_unitary(n).matrix)]
    if n <= 6:
        unitaries.append(phased_dft(n, rng.uniform(0, 6, n),
                                    rng.uniform(0, 6, n)))
    configs = one_per_arm(n)
    for u in unitaries:
        expansions = multiport._expansions(stats, u)
        assert list(u._expansions) == [stats]
        assert expansions.sizes.size == len(configs)
        offsets = expansions.offsets.tolist()
        for config, lo, hi in zip(configs, offsets, offsets[1:]):
            index = expansions.index[lo:hi]
            kernel = list(zip(multiport._configurations(
                expansions.codes[index], stats, n),
                expansions.amplitudes[lo:hi]))
            assert kernel == list(dict_expansion(config, stats, u).items())
            assert [expansions.labels[p]
                    for p in expansions.patterns[index]] == [
                tuple(c[2 * a] + c[2 * a + 1] for a in range(n))
                for c, _ in kernel]


def _level(stats, n, k):
    """The k-particle configurations of the 2n modes in ascending code:
    every choice of k modes, each mode at most once for fermions, counted
    into an occupation tuple."""
    choices = (itertools.combinations if stats is FERMION
               else itertools.combinations_with_replacement)
    configs = []
    for modes in choices(range(2 * n), k):
        c = [0] * (2 * n)
        for mode in modes:
            c[mode] += 1
        configs.append(tuple(c))
    return sorted(configs, key=lambda c: c[::-1])


def _swapped(c):
    """The configuration with the two spin modes of every arm exchanged."""
    return tuple(c[mode ^ 1] for mode in range(len(c)))


def _swap_sign(stats, c):
    """(-1) ** (arms holding both modes) for fermions, 1 for bosons."""
    doubles = sum(1 for a in range(len(c) // 2) if c[2 * a] and c[2 * a + 1])
    return (-1.0) ** doubles if stats is FERMION else 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_outputs_number_every_configuration_in_ascending_code(n):
    for stats in (BOSON, FERMION):
        levels, _, patterns, labels = multiport._levels(stats, n)
        assert len(levels) == n + 1
        for k, codes in enumerate(levels):
            assert (multiport._configurations(codes, stats, n)
                    == _level(stats, n, k))
        configs = _level(stats, n, n)
        assert len(configs) == (math.comb(3 * n - 1, n) if stats is BOSON
                                else math.comb(2 * n, n))
        assert len(set(labels)) == len(labels)
        assert [labels[p] for p in patterns] == [
            tuple(c[2 * a] + c[2 * a + 1] for a in range(n)) for c in configs]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transition_tables_are_the_creation_operators(n):
    # row j of level k holds, arm by arm in ascending order, each creation
    # into spin-0 mode 2 * arm that the statistics allows (a fermion row
    # omits exactly the occupied modes), the number at level k + 1 of the
    # configuration made and the factor: (-1) ** (occupied modes below)
    # for fermions, sqrt(occ + 1) for bosons
    for stats in (BOSON, FERMION):
        levels, _, _, _ = multiport._levels(stats, n)
        for k in range(n):
            configs, made = _level(stats, n, k), _level(stats, n, k + 1)
            first, arms, numbers, factors = multiport._creations(
                stats, n, levels[k], levels[k + 1])
            assert first.size == len(configs) + 1
            assert first[-1] == arms.size == numbers.size == factors.size
            assert numbers.dtype == np.int32
            for j, c in enumerate(configs):
                row = slice(first[j], first[j + 1])
                expected = []
                for arm in range(n):
                    mode = 2 * arm
                    if stats is FERMION and c[mode]:
                        continue
                    factor = ((-1.0) ** sum(c[:mode]) if stats is FERMION
                              else math.sqrt(c[mode] + 1.0))
                    created = c[:mode] + (c[mode] + 1,) + c[mode + 1:]
                    expected.append((arm, made.index(created), factor))
                assert list(zip(arms[row].tolist(), numbers[row].tolist(),
                                factors[row].tolist())) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_mirror_is_the_spin_swap_and_its_sign(n):
    # the swap map sends each configuration of a level to its spin-swapped
    # one and is its own inverse; the sign counts the arms holding both
    # modes, and bosons have none
    for stats in (BOSON, FERMION):
        levels, swaps, _, _ = multiport._levels(stats, n)
        assert len(swaps) == n + 1
        for k, swap in enumerate(swaps):
            configs = _level(stats, n, k)
            assert swap.dtype == np.int32
            assert swap[swap].tolist() == list(range(len(configs)))
            assert [configs[j] for j in swap.tolist()] == [
                _swapped(c) for c in configs]
            if stats is FERMION:
                sign = multiport._mirror_sign(levels[k])
                assert sign.tolist() == [_swap_sign(stats, c)
                                         for c in configs]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_output_counts_are_the_configurations_by_spin(n):
    # the closed form against every occupation tuple of m particles on the
    # 2n modes, counted by the particles in spin-1 (odd) modes
    for stats in (BOSON, FERMION):
        for m in range(1, n + 1):
            brute = [0] * (m + 1)
            for c in _level(stats, n, m):
                brute[sum(c[1::2])] += 1
            assert multiport._output_counts(stats, n, m).tolist() == brute


# sha256 over the index, amplitudes and offsets bytes of the expansions of
# all 2**n basis indices, as the kernel that expanded every spin string,
# without the mirror, kept them in its memo.  A -0.0 among the amplitudes
# would change them, where == cannot see it; of these, only fermion n=6
# holds zeros that the mirror negates
_MEMO_DIGESTS = {
    (FERMION, 6): "b9cccaaed7111162f727366e427a4a7c"
                  "15e28e8c8d65e48b9d06427a4abcceb7",
    (FERMION, 7): "1363316b43ed65428da564a6cad10291"
                  "b0676eb93696749ee545f995a84fa735",
    (BOSON, 6): "1e07236dd1093a6220cad11584eaf3f0"
                "62a984ca8f1ba69b2a3bb6415461e0a1",
}


@pytest.mark.parametrize("stats, n", list(_MEMO_DIGESTS))
def test_the_memo_bytes_are_pinned(stats, n):
    # the memo keeps half of the expansions; the merge's gather rebuilds
    # the other half, so the bytes it gathers for every basis index, with
    # the offsets of the old full memo, are hashed
    e = multiport._expansions(stats, MultiportUnitary(dft_unitary(n).matrix))
    index, amplitudes = multiport._gathered(np.arange(2 ** n), e)
    offsets = np.concatenate(([0], np.cumsum(e.sizes)))
    digest = hashlib.sha256()
    for array in (index, amplitudes, offsets):
        digest.update(array.tobytes())
    assert digest.hexdigest() == _MEMO_DIGESTS[stats, n]


@pytest.mark.parametrize("n, stats", [(n, FERMION) for n in range(1, 9)]
                         + [(n, BOSON) for n in range(1, 8)])
def test_the_memo_holds_the_spin_0_half(n, stats):
    # the basis indices below 2**(n - 1), 20 bytes per kept output: a 4-byte
    # output number and a 16-byte amplitude; the swap map and the fermion
    # sign cover the outputs once
    e = multiport._expansions(stats, MultiportUnitary(dft_unitary(n).matrix))
    half = 2 ** (n - 1)
    assert e.sizes.size == 2 ** n
    assert e.offsets.size == half + 1
    assert e.index.size == e.amplitudes.size == e.sizes[:half].sum()
    assert e.index.nbytes + e.amplitudes.nbytes == 20 * e.index.size
    assert e.swap.size == e.codes.size
    assert (e.sign is None) == (stats is BOSON)


def _expansion_list(e, index, stats, n):
    """The gathered expansions of basis indices ``index``, one after the
    other, as (configuration, amplitude) pairs."""
    number, amplitudes = multiport._gathered(np.asarray(index), e)
    return list(zip(multiport._configurations(e.codes[number], stats, n),
                    amplitudes))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from([BOSON, FERMION]),
       st.integers(0, 2 ** 32 - 1))
def test_gathered_expansions_are_the_dict_loop_bit_for_bit(n, stats, seed):
    # every basis index, the kept half and the mirrored half, on its own
    # and all of them gathered at once in a random order, as the merge
    # gathers a group's inputs
    rng = np.random.default_rng(seed)
    u = phased_dft(n, rng.uniform(0, 6, n), rng.uniform(0, 6, n))
    e = multiport._expansions(stats, u)
    oracles = [list(dict_expansion(config, stats, u).items())
               for config in one_per_arm(n)]
    for i, oracle in enumerate(oracles):
        assert _expansion_list(e, [i], stats, n) == oracle
    index = rng.permutation(2 ** n)
    assert _expansion_list(e, index, stats, n) == [
        pair for i in index.tolist() for pair in oracles[i]]


@pytest.mark.parametrize("n, stats", [(n, stats) for n in range(5, 7)
                                      for stats in (BOSON, FERMION)]
                         + [(7, FERMION)])
def test_the_mirrored_half_is_the_dict_loop_bit_for_bit(n, stats):
    # the memo keeps the spin-0 half, which the dict-loop test above reads;
    # the gather rebuilds the rest, on the DFT and a phased DFT below seven
    rng = np.random.default_rng(n)
    unitaries = [MultiportUnitary(dft_unitary(n).matrix)]
    if n <= 6:
        unitaries.append(phased_dft(n, rng.uniform(0, 6, n),
                                    rng.uniform(0, 6, n)))
    configs = one_per_arm(n)
    for u in unitaries:
        e = multiport._expansions(stats, u)
        for i in range(2 ** (n - 1), 2 ** n):
            assert (_expansion_list(e, [i], stats, n)
                    == list(dict_expansion(configs[i], stats, u).items()))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from([BOSON, FERMION]),
       st.integers(0, 2 ** 32 - 1))
def test_the_complement_spin_string_expands_to_the_swapped_outputs(
        n, stats, seed):
    # the multiport acts on arms alone, so swapping every spin commutes
    # with it: in the dict loop, the expansion of the complement string is
    # the expansion of the string with its outputs swapped, key for key in
    # order, each amplitude times the swap's sign, by ==
    rng = np.random.default_rng(seed)
    u = phased_dft(n, rng.uniform(0, 6, n), rng.uniform(0, 6, n))
    configs = one_per_arm(n)
    for i, config in enumerate(configs):
        expansion = dict_expansion(config, stats, u)
        mirrored = dict_expansion(configs[(2 ** n - 1) ^ i], stats, u)
        assert list(mirrored) == [_swapped(c) for c in expansion]
        assert list(mirrored.values()) == [
            amp * _swap_sign(stats, c) for c, amp in expansion.items()]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("stats", [BOSON, FERMION])
def test_each_step_reads_its_parents_spin_0_half_through_the_gather(
        monkeypatch, n, stats):
    # the mirror has one home: a creation step reads the level before,
    # which keeps only its spin-0 half, through _gathered, chunk by chunk,
    # with chunks of the default size and of one node each
    gathered = multiport._gathered
    for chunk in (multiport._CHUNK_TERMS, 1):
        monkeypatch.setattr(multiport, "_CHUNK_TERMS", chunk)
        read = []
        monkeypatch.setattr(multiport, "_gathered", lambda index, level: (
            read.append(level) or gathered(index, level)))
        multiport._expansions(stats, MultiportUnitary(dft_unitary(n).matrix))
        levels = list({id(level): level for level in read}.values())
        assert [level.sizes.size for level in levels] == [
            2 ** t for t in range(n)]
        for level in levels[1:]:
            assert level.offsets.size - 1 == level.sizes.size // 2
        if chunk == 1:
            assert len(read) == 2 ** n - 1


def test_a_wrong_output_count_is_refused(monkeypatch):
    # one output too many per node: the step refuses its chunk's outputs
    # before writing them, and nothing is memoized
    counts = multiport._output_counts
    monkeypatch.setattr(multiport, "_output_counts",
                        lambda stats, n, m: counts(stats, n, m) + 1)
    for stats in (BOSON, FERMION):
        u = MultiportUnitary(dft_unitary(3).matrix)
        with pytest.raises(RuntimeError, match="closed form"):
            multiport._expansions(stats, u)
        assert not u._expansions


def test_an_unnormalized_expansion_is_refused():
    # a memo whose amplitudes are doubled evolves a unit vector to norm 4
    for stats in (BOSON, FERMION):
        u = MultiportUnitary(dft_unitary(2).matrix)
        e = multiport._expansions(stats, u)
        u._expansions[stats] = e._replace(amplitudes=2 * e.amplitudes)
        with pytest.raises(ValueError, match="must be normalized"):
            interfere(np.array([0.0, 1.0, 0.0, 0.0]), stats, u)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_the_expansion_memo_is_one_read_only_run_in_basis_index_order(n):
    for stats in (BOSON, FERMION):
        e = multiport._expansions(stats, MultiportUnitary(
            dft_unitary(n).matrix))
        assert e.index.dtype == e.swap.dtype == np.int32
        for array in (e.index, e.amplitudes, e.swap, e.sign):
            if array is None:
                continue
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        # the slices of the kept basis indices, the lower half of the 2**n,
        # tile the arrays, in order
        half = 2 ** (n - 1)
        assert e.offsets.size == half + 1
        assert e.offsets[0] == 0
        assert e.offsets[-1] == e.index.size == e.amplitudes.size
        assert np.diff(e.offsets).tolist() == e.sizes[:half].tolist()
        assert e.sizes.size == 2 ** n
        assert (e.sizes > 0).all()


def test_streamed_groups_are_the_dict_loop_bit_for_bit(monkeypatch):
    # a group budget of about three basis-state members: the mixed state
    # runs in groups of several members, and each member of the random
    # rank-3 state, larger than the budget, makes a group of its own
    rng = np.random.default_rng(53)
    groups = []
    merge = multiport._merge

    def recorded(member, index, amplitudes, expansions):
        members = int(member[-1]) + 1
        groups.append((members, 8 * int(expansions.sizes[index].sum())
                       + members * expansions.codes.size))
        return merge(member, index, amplitudes, expansions)

    monkeypatch.setattr(multiport, "_merge", recorded)
    budget = multiport._GROUP_BUDGET
    for stats in (BOSON, FERMION):
        u = phased_dft(4, rng.uniform(0, 6, 4), rng.uniform(0, 6, 4))
        expansions = multiport._expansions(stats, u)
        small = 3 * (8 * int(expansions.sizes.max()) + expansions.codes.size)
        for rho, alone in ((DensityMatrix(_random_state(4, 3, rng)), True),
                           (maximally_mixed(4), False)):
            # the kernel lists the patterns in ascending order, the loop as
            # it first meets them
            oracle = sorted(
                dict_interfere(rho, stats, u).probabilities.items())
            monkeypatch.setattr(multiport, "_GROUP_BUDGET", small)
            groups.clear()
            streamed = interfere(rho, stats, u)
            assert len(groups) > 1
            if alone:
                assert all(m == 1 and cost > small for m, cost in groups)
            else:
                assert max(m for m, _ in groups) > 1
            assert list(streamed.probabilities.items()) == oracle
            # under the usual budget the call is one group, and a second
            # call, merged again, gives the same bits
            monkeypatch.setattr(multiport, "_GROUP_BUDGET", budget)
            groups.clear()
            first = interfere(rho, stats, u)
            again = interfere(rho, stats, u)
            assert [m for m, _ in groups] == [len(prepare_input(rho))] * 2
            assert list(first.probabilities.items()) == oracle
            assert list(again.probabilities.items()) == oracle


def _merging_refused(key, cells):
    raise AssertionError("a group of one-input members was merged")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("stats", [BOSON, FERMION])
def test_one_input_members_are_not_merged(monkeypatch, n, stats):
    # each member of these holds one input, whose outputs are distinct:
    # the basis vectors of the mixed state, consecutive, those of a
    # diagonal state with distinct weights, which eigh lists by weight, and
    # one phased string past the first, so its memo slice is not at 0
    rng = np.random.default_rng(90 + n)
    weights = rng.permutation(2 ** n) + 1.0
    string = np.zeros(2 ** n, dtype=complex)
    string[rng.integers(1, 2 ** n)] = np.exp(0.7j)
    internals = [DensityMatrix(maximally_mixed(n).matrix),
                 DensityMatrix(np.diag(weights / weights.sum())), string]
    oracles = [sorted(dict_interfere(internal, stats).probabilities.items())
               for internal in internals]
    # the expansion steps do merge: their memos are filled first
    u = symmetric_two_port()
    for unitary in (dft_unitary(n), u):
        multiport._expansions(stats, unitary)
    monkeypatch.setattr(multiport, "_first_seen", _merging_refused)
    # one group, then one group per member, each past the first at an
    # offset of the memo
    for budget in (multiport._GROUP_BUDGET, 1):
        monkeypatch.setattr(multiport, "_GROUP_BUDGET", budget)
        for internal, oracle in zip(internals, oracles):
            # a fresh state each time, so that no kept answer is read
            if isinstance(internal, DensityMatrix):
                internal = DensityMatrix(internal.matrix)
            assert list(interfere(internal, stats).probabilities.items()
                        ) == oracle
    # an amplitude of -1.0 on an output whose real part is exactly 0.0 makes
    # -0.0, which the dict loop's sum from 0j turns into +0.0; repr tells
    # the two apart
    for config in one_per_arm(2):
        state = FockState(stats, {config: -1.0})
        assert (repr(list(evolve(state, u).amplitudes.items()))
                == repr(list(dict_evolve(state, u).amplitudes.items())))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("stats", [BOSON, FERMION])
def test_members_of_several_inputs_are_merged(monkeypatch, n, stats):
    # the aligned hypothesis's members are superpositions of the strings of
    # one excitation number
    rho = DensityMatrix(aligned_mixture(n).matrix)
    oracle = sorted(dict_interfere(rho, stats).probabilities.items())
    multiport._expansions(stats, dft_unitary(n))
    merged = []
    first_seen = multiport._first_seen

    def recorded(key, cells):
        merged.append(key.size)
        return first_seen(key, cells)

    monkeypatch.setattr(multiport, "_first_seen", recorded)
    assert list(interfere(rho, stats).probabilities.items()) == oracle
    assert merged


@pytest.mark.parametrize("n, stats", [(n, FERMION) for n in range(2, 7)]
                         + [(n, BOSON) for n in range(2, 6)])
def test_merges_in_chunks_of_a_few_terms_keep_every_bit(monkeypatch, n, stats):
    # a chunk holds whole inputs, so chunks of about three terms take one
    # input each, and chunks of about two of the largest inputs take a few:
    # a merged output's terms are added across chunks, in the loop's order
    rng = np.random.default_rng(110 + n)
    u = dft_unitary(n)
    states = [aligned_mixture(n), maximally_mixed(n),
              DensityMatrix(_random_state(n, 3, rng))]
    merged = []
    first_seen = multiport._first_seen

    def recorded(key, cell):
        merged.append(key.size)
        return first_seen(key, cell)

    def bits():
        # an explicit unitary, so that no kept answer is read
        return [[(p, v.hex()) for p, v in
                 interfere(rho, stats, u).probabilities.items()]
                for rho in states]

    e = multiport._expansions(stats, u)
    monkeypatch.setattr(multiport, "_first_seen", recorded)
    whole = bits()
    chunks = len(merged)
    for terms in (3, 2 * int(e.sizes.max())):
        monkeypatch.setattr(multiport, "_GROUP_BUDGET", 8 * terms)
        merged.clear()
        assert bits() == whole
        assert len(merged) > chunks


def test_a_streamed_member_holds_its_cells_and_one_chunk():
    # the aligned hypothesis's largest member at boson n = 7, 35 inputs and
    # 617,400 terms, is over the group budget; its merge holds a 4-byte
    # mark and a 16-byte sum per cell, and about a hundred bytes per term of
    # one chunk and per merged output, never an array over all of its terms
    u = MultiportUnitary(dft_unitary(7).matrix)
    e = multiport._expansions(BOSON, u)
    vec = max((vec for _, vec in prepare_input(aligned_mixture(7))),
              key=lambda vec: e.sizes[np.abs(vec) > TOL].sum())
    index = np.flatnonzero(np.abs(vec) > TOL)
    lengths = e.sizes[index]
    terms, cells = int(lengths.sum()), e.codes.size
    assert 8 * terms + cells > multiport._GROUP_BUDGET
    tracemalloc.start()
    try:
        owner, _, _, _ = multiport._merge(
            np.zeros_like(index), index, vec[index], e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk = max(multiport._GROUP_BUDGET // 8, int(lengths.max()))
    assert peak <= 20 * cells + 100 * (chunk + owner.size)
    assert peak < 8 * terms


@st.composite
def fock_states(draw):
    """A random Fock state of 1-6 distinct spin strings, one particle per
    arm on 2-4 arms, with random complex amplitudes, through a random
    phased DFT."""
    n = draw(st.integers(2, 4))
    stats = draw(st.sampled_from([BOSON, FERMION]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    strings = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=1,
                            max_size=min(6, 2 ** n), unique=True))
    configs = [one_per_arm(n)[i] for i in strings]
    amplitudes = rng.normal(size=len(configs)) + 1j * rng.normal(
        size=len(configs))
    amplitudes /= np.linalg.norm(amplitudes)
    u = phased_dft(n, rng.uniform(0, 6, n), rng.uniform(0, 6, n))
    return FockState(stats, dict(zip(configs, amplitudes.tolist()))), u


@settings(max_examples=200, deadline=None)
@given(fock_states())
def test_evolve_of_random_fock_states_is_the_dict_loop_bit_for_bit(case):
    state, u = case
    assert (list(evolve(state, u).amplitudes.items())
            == list(dict_evolve(state, u).amplitudes.items()))


@pytest.mark.parametrize("n, stats", [(7, FERMION), (6, BOSON), (8, FERMION)])
def test_expanding_every_configuration_stays_near_the_memo_in_memory(n, stats):
    # the steps run in chunks of bounded size: the transient arrays of a
    # whole step would take tens of megabytes here
    u = MultiportUnitary(dft_unitary(n).matrix)
    tracemalloc.start()
    try:
        multiport._expansions(stats, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expansions = u._expansions[stats]
    memo = (expansions.codes.nbytes + expansions.patterns.nbytes
            + expansions.index.nbytes + expansions.amplitudes.nbytes)
    assert peak - memo <= 8 * 2 ** 20


@pytest.mark.parametrize("n, stats", [(7, FERMION), (6, BOSON)])
@pytest.mark.parametrize("state", [aligned_mixture, maximally_mixed])
def test_interfere_stays_near_the_memo_in_memory(n, stats, state):
    # the members run in groups of bounded size, one group after another:
    # one plan over all members took 10-22 MB here
    u = MultiportUnitary(dft_unitary(n).matrix)
    multiport._expansions(stats, u)
    rho = state(n)
    tracemalloc.start()
    try:
        interfere(rho, stats, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20


# The pinched states have members confined to one excitation number, with
# exact interference zeros among their outputs, and the unpinched ones
# members spread over all of them.
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.sampled_from([BOSON, FERMION]),
       st.integers(1, 3), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_interfere_is_the_dict_loop_bit_for_bit(n, stats, rank, pinch, seed):
    rho = _random_state(n, rank, np.random.default_rng(seed))
    rho = DensityMatrix(_pinched(rho) if pinch else rho)
    assert (list(interfere(rho, stats).probabilities.items())
            == sorted(dict_interfere(rho, stats).probabilities.items()))


def test_evolve_and_spatial_distribution_are_the_dict_loop_bit_for_bit():
    rng = np.random.default_rng(41)
    for n in (2, 3):
        for stats in (BOSON, FERMION):
            u = phased_dft(n, rng.uniform(0, 6, n), rng.uniform(0, 6, n))
            rho = DensityMatrix(_pinched(_random_state(n, 2, rng)))
            ensemble = fock_ensemble(rho, stats)
            kernel = [(w, evolve(s, u)) for w, s in ensemble]
            oracle = [(w, dict_evolve(s, u)) for w, s in ensemble]
            for (_, a), (_, b) in zip(kernel, oracle):
                assert list(a.amplitudes.items()) == list(b.amplitudes.items())
            assert (list(spatial_distribution(kernel).probabilities.items())
                    == sorted(dict_spatial_distribution(oracle)
                              .probabilities.items()))


# ----------------------------------------------- pattern order and presence

def _pattern(config):
    """The arm counts of a configuration."""
    return tuple(map(sum, zip(config[0::2], config[1::2])))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from([BOSON, FERMION]),
       st.integers(1, 3), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_distributions_list_their_patterns_in_ascending_order(
        n, stats, rank, pinch, seed):
    # interfere keeps the pattern of each output that outlives the TOL
    # cut, and spatial_distribution the pattern of each configuration it
    # is given, amplitude zero or not; both list them in ascending order
    rng = np.random.default_rng(seed)
    _, _, _, labels = multiport._levels(stats, n)
    assert labels == sorted(labels)
    rho = _random_state(n, rank, rng)
    rho = DensityMatrix(_pinched(rho) if pinch else rho)
    d = interfere(rho, stats)
    u = dft_unitary(n)
    evolved = [(w, evolve(s, u)) for w, s in fock_ensemble(rho, stats)]
    assert list(d.probabilities) == sorted(
        {_pattern(c) for _, s in evolved for c in s.amplitudes})
    assert (list(spatial_distribution(evolved).probabilities.items())
            == list(d.probabilities.items()))
    # a random state over n-particle configurations, every other
    # amplitude zero
    level = _level(stats, n, n)
    configs = [level[j] for j in rng.permutation(len(level))[:6]]
    amplitudes = rng.normal(size=len(configs)) + 1j * rng.normal(
        size=len(configs))
    amplitudes[1::2] = 0.0
    amplitudes /= np.linalg.norm(amplitudes)
    ensemble = [(1.0, FockState(stats, dict(zip(configs,
                                                amplitudes.tolist()))))]
    d = spatial_distribution(ensemble)
    assert list(d.probabilities) == sorted({_pattern(c) for c in configs})
    assert list(d.probabilities.items()) == sorted(
        dict_spatial_distribution(ensemble).probabilities.items())
    zero_only = ({_pattern(c) for c in configs[1::2]}
                 - {_pattern(c) for c in configs[0::2]})
    assert all(d.probabilities[p] == 0.0 for p in zero_only)


@pytest.mark.parametrize("n, stats", [(7, FERMION), (6, BOSON)])
@pytest.mark.parametrize("state", [aligned_mixture, maximally_mixed])
def test_frontier_distributions_list_their_patterns_in_ascending_order(
        n, stats, state):
    _, _, _, labels = multiport._levels(stats, n)
    assert labels == sorted(labels)
    d = interfere(state(n), stats)
    # aligned fermions leave one per arm: one pattern, trivially in order
    aligned_fermions = state is aligned_mixture and stats is FERMION
    assert (len(d.probabilities) == 1) == aligned_fermions
    assert list(d.probabilities) == sorted(d.probabilities)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, pytest.param(
    8, marks=pytest.mark.frontier)])
def test_interfere_leaves_out_the_patterns_of_interference_zeros(n):
    # aligned spins are symmetric, so fermions leave one per arm: every
    # bunched output that the inputs' expansions reach cancels, and its
    # pattern is left out, as the dict loop leaves it out
    rho = aligned_mixture(n)
    e = multiport._expansions(FERMION, dft_unitary(n))
    inputs = {i for _, vec in prepare_input(rho)
              for i in np.flatnonzero(np.abs(vec) > TOL).tolist()}
    number, _ = multiport._gathered(np.array(sorted(inputs)), e)
    reached = {e.labels[p] for p in e.patterns[number]}
    assert reached > {(1,) * n}
    assert list(interfere(rho, FERMION).probabilities) == [(1,) * n]
    if n <= 4:
        assert list(dict_interfere(rho, FERMION).probabilities) == [(1,) * n]
