import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statdisc
from statdisc.applications import classical_pauli_success, scan_discrimination
from statdisc.core import (SUM_TOL, CapacityError, DensityMatrix,
                           partial_trace, swap_operator, symmetric_projector,
                           tensor, trace_norm)
from statdisc.discrimination import aligned_vs_mixed_bound
from statdisc.multiport import (MultiportUnitary, Statistics, dft_unitary,
                                prepare_input)
from statdisc.states import BlochDirection, maximally_mixed

from oracles import aligned_direction_state, permutation_operator


def random_density(rng, n_qubits):
    dim = 2 ** n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The shape and dtype of every matrix handed to ``np.linalg.eigvalsh``."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: calls.append((m.shape, m.dtype))
                        or eigvalsh(m))
    return calls


def state_with_lowest(seed, n_qubits, lowest, real):
    """A Hermitian unit-trace matrix over n qubits whose spectrum is
    ``lowest`` and positive weights, turned by a random orthogonal (real) or
    unitary (complex) basis change."""
    rng = np.random.default_rng(seed)
    dim = 2 ** n_qubits
    rest = rng.uniform(0.1, 1.0, size=dim - 1)
    spectrum = np.concatenate(([lowest], rest * (1.0 - lowest) / rest.sum()))
    a = rng.normal(size=(dim, dim))
    if not real:
        a = a + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    m = (q * spectrum) @ q.conj().T
    return (m + m.conj().T) / 2


# ------------------------------------------------------------ DensityMatrix

def test_density_matrix_accepts_valid_state():
    rho = DensityMatrix(np.eye(2) / 2)
    assert rho.dim == 2
    assert rho.n_qubits == 1


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="positive semi-definite"):
        DensityMatrix(m)


def test_density_matrix_solves_real_states_in_real_arithmetic(
        eigvalsh_calls):
    DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert eigvalsh_calls == [((2, 2), np.float64)]
    eigvalsh_calls.clear()
    DensityMatrix(np.array([[0.5, 0.25j], [-0.25j, 0.5]]))
    assert eigvalsh_calls == [((2, 2), np.complex128)]
    # a refusal names the lowest eigenvalue on either path
    eigvalsh_calls.clear()
    for m in (np.diag([1.5, -0.5]),
              np.array([[0.5, 1j], [-1j, 0.5]])):
        with pytest.raises(ValueError,
                           match=r"lowest eigenvalue -5\.000e-01"):
            DensityMatrix(m)
    assert eigvalsh_calls == [((2, 2), np.float64),
                              ((2, 2), np.complex128)]


# within 1e-12 of the threshold, yet far above the rounding of either solver
NEAR_THRESHOLD = st.builds(lambda sign, offset: -SUM_TOL + sign * offset,
                           st.sampled_from((-1, 1)),
                           st.floats(1e-13, 1e-12))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_qubits=st.integers(1, 4),
       lowest=st.one_of(st.just(0.0), st.just(-0.1), NEAR_THRESHOLD),
       real=st.booleans())
def test_density_matrix_positivity_matches_the_complex_solver(
        seed, n_qubits, lowest, real):
    m = state_with_lowest(seed, n_qubits, lowest, real)
    assert np.isrealobj(m) == real
    oracle = np.linalg.eigvalsh(m.astype(complex))[0]
    assert (oracle >= -SUM_TOL) == (lowest >= -SUM_TOL)
    try:
        DensityMatrix(m)
        accepted = True
    except ValueError as exc:
        assert "positive semi-definite" in str(exc)
        accepted = False
    assert accepted == (oracle >= -SUM_TOL)


def test_density_matrix_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="qubit"):
        DensityMatrix(np.eye(3) / 3)
    with pytest.raises(ValueError, match=r"matrix, got array of shape \(4,\)"):
        DensityMatrix(np.full(4, 0.25))


def test_density_matrix_rejects_non_finite():
    m = np.eye(2, dtype=complex) / 2
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(m)


def test_density_matrix_is_read_only():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_density_matrix_stops_at_the_capacity(eigvalsh_calls):
    assert DensityMatrix(np.eye(2 ** 8) / 2 ** 8).n_qubits == 8
    assert eigvalsh_calls == [((256, 256), np.float64)]
    # refused before the eigenvalue validation, the costly part
    eigvalsh_calls.clear()
    with pytest.raises(CapacityError, match="n = 9 .* 8-qubit limit"):
        DensityMatrix(np.eye(2 ** 9) / 2 ** 9)
    assert eigvalsh_calls == []
    # and before its own copy of the matrix, 4 MB at 512 x 512
    big = np.eye(2 ** 9, dtype=complex) / 2 ** 9
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            DensityMatrix(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_density_matrix_refuses_non_qubit_dimensions_before_any_work(
        eigvalsh_calls):
    # seven qutrits: dimension 2187 lies between 2**11 and 2**12
    for m in (np.eye(3 ** 7) / 3 ** 7, np.ones((2, 4)) / 2, np.zeros((0, 0))):
        with pytest.raises(ValueError, match="qubit"):
            DensityMatrix(m)
    assert eigvalsh_calls == []


def test_density_matrix_of_dimension_one_is_refused(eigvalsh_calls):
    with pytest.raises(ValueError, match="n must be at least 1"):
        DensityMatrix([[1.0]])
    assert eigvalsh_calls == []


# ------------------------------------------------------------------ tensor

def test_tensor_of_identities():
    joint = tensor(maximally_mixed(1), maximally_mixed(2))
    assert np.allclose(joint.matrix, np.eye(8) / 8)


def test_tensor_concatenates_factor_shapes():
    rng = np.random.default_rng(3)
    a = random_density(rng, 1)
    b = random_density(rng, 2)
    joint = tensor(a, b)
    assert joint.n_qubits == 3
    assert np.allclose(joint.matrix, np.kron(a.matrix, b.matrix))


def test_tensor_stops_at_the_capacity(monkeypatch):
    big = DensityMatrix(np.eye(2 ** 8) / 2 ** 8)
    assert tensor(maximally_mixed(7), maximally_mixed(1)).n_qubits == 8
    calls = []
    kron = np.kron
    monkeypatch.setattr(np, "kron",
                        lambda a, b: calls.append(a.shape) or kron(a, b))
    with pytest.raises(CapacityError, match="n = 9 .* 8-qubit limit"):
        tensor(big, DensityMatrix(np.eye(2) / 2))
    assert calls == []


def test_tensor_rejects_mixed_kinds():
    # a plain operand is refused, whichever side it stands on
    rho = DensityMatrix(np.eye(2) / 2)
    for a, b in ((rho, np.eye(2) / 2), (np.eye(2) / 2, rho),
                 (np.eye(2) / 2, np.eye(2) / 2)):
        with pytest.raises(TypeError, match="two density matrices"):
            tensor(a, b)


# ------------------------------------------------------------ partial_trace

def test_partial_trace_of_bell_pair_is_maximally_mixed():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    rho = DensityMatrix(np.outer(bell, bell))
    for keep in ((0,), (1,)):
        reduced = partial_trace(rho, keep)
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 3)
    same = partial_trace(rho, (0, 1, 2))
    assert np.allclose(same.matrix, rho.matrix, atol=1e-14)


def test_partial_trace_of_product_recovers_factors():
    rng = np.random.default_rng(6)
    a = random_density(rng, 1)
    b = random_density(rng, 1)
    joint = tensor(a, b)
    assert np.allclose(partial_trace(joint, (0,)).matrix, a.matrix, atol=1e-14)
    assert np.allclose(partial_trace(joint, (1,)).matrix, b.matrix, atol=1e-14)


def test_partial_trace_composes_down_to_one_qubit():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 3)
    # peel one factor at a time, down to the last qubit
    step = partial_trace(rho, (0, 1))
    final = partial_trace(step, (0,))
    assert final.n_qubits == 1
    assert np.isclose(np.trace(final.matrix), 1.0)
    assert np.allclose(final.matrix, partial_trace(rho, (0,)).matrix,
                       atol=1e-14)
    # tracing out the last one as well leaves no register
    with pytest.raises(ValueError, match="n must be at least 1"):
        partial_trace(final, ())


@pytest.mark.parametrize("n", [1, 3])
def test_partial_trace_refuses_an_empty_keep_before_tracing(n, monkeypatch):
    rho = DensityMatrix(np.eye(2 ** n) / 2 ** n)
    monkeypatch.setattr(np, "trace", None)
    with pytest.raises(ValueError, match="keep names no qubit"):
        partial_trace(rho, keep=())


def test_partial_trace_rejects_unsorted_keep():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 2)
    with pytest.raises(ValueError, match="strictly increasing"):
        partial_trace(rho, (1, 0))
    with pytest.raises(ValueError, match="strictly increasing"):
        partial_trace(rho, (0, 0))
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(rho, (2,))


def test_partial_trace_refuses_an_index_that_is_not_an_integer():
    rho = random_density(np.random.default_rng(9), 2)
    for keep in ((0.9,), (0, 1.0)):
        with pytest.raises(TypeError, match="integer"):
            partial_trace(rho, keep)
    # an integer of numpy's is an index
    assert np.array_equal(partial_trace(rho, (np.int64(0),)).matrix,
                          partial_trace(rho, (0,)).matrix)


# --------------------------------------------------------------- trace_norm

def test_trace_norm_of_diagonal_matrix():
    assert np.isclose(trace_norm(np.diag([3.0, -4.0, 0.0])), 7.0)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        trace_norm(np.zeros((2, 3)))


def test_trace_norm_dominates_trace():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = a + a.conj().T
        assert trace_norm(h) >= abs(np.trace(h).real) - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
def test_trace_norm_matches_absolute_eigenvalue_sum(diag):
    h = np.diag(np.array(diag, dtype=complex))
    assert np.isclose(trace_norm(h), sum(abs(x) for x in diag), atol=1e-12)


# ------------------------------------------------- symmetrizers and swaps

def test_swap_operator_exchanges_factors():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    swap = swap_operator()
    assert np.allclose(swap @ np.kron(a, b) @ swap, np.kron(b, a))
    assert np.allclose(swap @ swap, np.eye(4))


def test_symmetric_projector_two_qubits_closed_form():
    expected = (np.eye(4) + swap_operator()) / 2
    assert np.allclose(symmetric_projector(2), expected, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symmetric_projector_is_projector_of_rank_n_plus_one(n):
    p = symmetric_projector(n)
    assert np.allclose(p, p.conj().T, atol=1e-13)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.linalg.matrix_rank(p) == n + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symmetric_projector_equals_permutation_average(n):
    # independent route: explicit dense permutation operators.  Their sum
    # is a 0/1-count matrix, divided here in real arithmetic, since numpy's
    # complex-by-scalar division can round 120/720 one ulp high; the closed
    # form must then agree bit for bit, not just to rounding
    from itertools import permutations as iperm
    total = np.zeros((2 ** n, 2 ** n))
    count = 0
    for perm in iperm(range(n)):
        total += permutation_operator(perm).real
        count += 1
    assert np.array_equal(symmetric_projector(n), total / count)


def test_symmetric_projector_commutes_with_permutations():
    p = symmetric_projector(3)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        u = permutation_operator(perm)
        assert np.allclose(u @ p, p @ u, atol=1e-13)


def test_permutation_operator_identity():
    assert np.allclose(permutation_operator((0, 1, 2)), np.eye(8))


def test_permutation_operator_rejects_non_permutation():
    with pytest.raises(ValueError):
        permutation_operator((0, 0, 1))


def test_symmetric_projector_rejects_zero_qubits():
    with pytest.raises(ValueError):
        symmetric_projector(0)


def test_symmetric_projector_stops_at_the_capacity():
    assert symmetric_projector(8).shape == (256, 256)
    with pytest.raises(CapacityError, match="n = 9 .* 8-qubit limit"):
        symmetric_projector(9)


# ------------------------------------------------------- one home per policy

def _package_sources():
    for path in sorted(Path(statdisc.__file__).resolve().parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _core_nodes(tree, keep):
    """Every node under the top-level statements of ``tree`` that ``keep``
    accepts."""
    return {id(node) for stmt in tree.body if keep(stmt)
            for node in ast.walk(stmt)}


def _is_tolerance_table(stmt):
    targets = [getattr(t, "id", None) for t in getattr(stmt, "targets", ())]
    return isinstance(stmt, ast.Assign) and targets in (["TOL"], ["SUM_TOL"])


def _is_register_rule(stmt):
    return isinstance(stmt, ast.FunctionDef) and stmt.name == "check_register"


def test_tolerances_are_defined_only_in_the_core_table():
    stray = []
    for name, tree in _package_sources():
        table = (_core_nodes(tree, _is_tolerance_table)
                 if name == "core.py" else set())
        stray += [f"{name}:{node.lineno}: {node.value!r}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, float)
                  and 0.0 < abs(node.value) < 1e-6 and id(node) not in table]
    assert stray == []


def test_capacity_errors_are_raised_only_by_check_register():
    stray = []
    for name, tree in _package_sources():
        rule = (_core_nodes(tree, _is_register_rule)
                if name == "core.py" else set())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or id(node) in rule:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == \
                    "CapacityError":
                stray.append(f"{name}:{node.lineno}")
    assert stray == []


def test_empty_registers_are_refused_only_by_check_register():
    stray = []
    for name, tree in _package_sources():
        rule = (_core_nodes(tree, _is_register_rule)
                if name == "core.py" else set())
        stray += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and node.value == "n must be at least 1"
                  and id(node) not in rule]
    assert stray == []


# tensor and partial_trace meet the rule through the joint or kept size:
# see test_tensor_stops_at_the_capacity and
# test_partial_trace_composes_down_to_one_qubit
@pytest.mark.parametrize("entry", [
    pytest.param(symmetric_projector, id="symmetric_projector"),
    pytest.param(aligned_vs_mixed_bound, id="aligned_vs_mixed_bound"),
    pytest.param(dft_unitary, id="dft_unitary"),
    # not unitary: a size refused first is refused before the product
    pytest.param(lambda n: MultiportUnitary(np.zeros((n, n))),
                 id="MultiportUnitary"),
    pytest.param(lambda n: DensityMatrix(np.eye(2 ** n) / 2 ** n),
                 id="DensityMatrix"),
    pytest.param(lambda n: aligned_direction_state(BlochDirection(0.3, 1.2),
                                                   n),
                 id="aligned_direction_state"),
    pytest.param(maximally_mixed, id="maximally_mixed"),
    pytest.param(classical_pauli_success, id="classical_pauli_success"),
    pytest.param(lambda n: prepare_input(np.ones(2 ** n)),
                 id="prepare_input"),
    pytest.param(lambda n: prepare_input(DensityMatrix(np.eye(2 ** n)
                                                       / 2 ** n)),
                 id="prepare_input_density_matrix"),
    pytest.param(lambda n: scan_discrimination(n, Statistics.FERMION),
                 id="scan_discrimination")])
def test_every_register_size_meets_the_one_rule(entry):
    with pytest.raises(ValueError, match="n must be at least 1"):
        entry(0)
    with pytest.raises(TypeError, match="integer"):
        entry(2.5)
    with pytest.raises(CapacityError, match="n = 9 .* 8-qubit limit"):
        entry(9)
