import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statdisc
from statdisc.core import (CapacityError, DensityMatrix, partial_trace,
                           permutation_operator, swap_operator,
                           symmetric_projector, tensor, trace_norm)


def random_density(rng, dims):
    dim = math.prod(dims)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real, tuple(dims))


# ------------------------------------------------------------ DensityMatrix

def test_density_matrix_accepts_valid_state():
    rho = DensityMatrix(np.eye(2) / 2, (2,))
    assert rho.dim == 2
    assert rho.n_factors == 1


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(m, (2,))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2), (2,))


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="positive semi-definite"):
        DensityMatrix(m, (2,))


def test_density_matrix_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="factor shape"):
        DensityMatrix(np.eye(4) / 4, (2,))


def test_density_matrix_rejects_non_finite():
    m = np.eye(2, dtype=complex) / 2
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(m, (2,))


def test_density_matrix_is_read_only():
    rho = DensityMatrix(np.eye(2) / 2, (2,))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


# ------------------------------------------------------------------ tensor

def test_tensor_of_identities():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_concatenates_factor_shapes():
    rng = np.random.default_rng(3)
    a = random_density(rng, (2,))
    b = random_density(rng, (2, 2))
    joint = tensor(a, b)
    assert joint.factor_shape == (2, 2, 2)
    assert np.allclose(joint.matrix, np.kron(a.matrix, b.matrix))


def test_tensor_rejects_mixed_kinds():
    rho = DensityMatrix(np.eye(2) / 2, (2,))
    with pytest.raises(TypeError):
        tensor(rho, np.eye(2))


def test_tensor_trace_is_multiplicative():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.isclose(np.trace(tensor(a, b)), np.trace(a) * np.trace(b))


# ------------------------------------------------------------ partial_trace

def test_partial_trace_of_bell_pair_is_maximally_mixed():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    rho = DensityMatrix(np.outer(bell, bell), (2, 2))
    for keep in ((0,), (1,)):
        reduced = partial_trace(rho, keep)
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(5)
    rho = random_density(rng, (2, 2, 2))
    same = partial_trace(rho, (0, 1, 2))
    assert np.allclose(same.matrix, rho.matrix, atol=1e-14)


def test_partial_trace_of_product_recovers_factors():
    rng = np.random.default_rng(6)
    a = random_density(rng, (2,))
    b = random_density(rng, (2,))
    joint = tensor(a, b)
    assert np.allclose(partial_trace(joint, (0,)).matrix, a.matrix, atol=1e-14)
    assert np.allclose(partial_trace(joint, (1,)).matrix, b.matrix, atol=1e-14)


def test_partial_trace_composes_to_scalar_one():
    rng = np.random.default_rng(7)
    rho = random_density(rng, (2, 2, 2))
    # peel one factor at a time, then drop the last one as well
    step = partial_trace(rho, (0, 1))
    step = partial_trace(step, (0,))
    final = partial_trace(step, ())
    assert final.matrix.shape == (1, 1)
    assert np.isclose(final.matrix[0, 0], 1.0)


def test_partial_trace_rejects_unsorted_keep():
    rng = np.random.default_rng(8)
    rho = random_density(rng, (2, 2))
    with pytest.raises(ValueError, match="strictly increasing"):
        partial_trace(rho, (1, 0))
    with pytest.raises(ValueError, match="strictly increasing"):
        partial_trace(rho, (0, 0))
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(rho, (2,))


# --------------------------------------------------------------- trace_norm

def test_trace_norm_of_diagonal_matrix():
    assert np.isclose(trace_norm(np.diag([3.0, -4.0, 0.0])), 7.0)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


def _is_capacity_rule(stmt):
    return isinstance(stmt, ast.FunctionDef) and stmt.name == "check_capacity"


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


def test_capacity_errors_are_raised_only_by_check_capacity():
    stray = []
    for name, tree in _package_sources():
        rule = (_core_nodes(tree, _is_capacity_rule)
                if name == "core.py" else set())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or id(node) in rule:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == \
                    "CapacityError":
                stray.append(f"{name}:{node.lineno}")
    assert stray == []
