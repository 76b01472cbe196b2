"""Exact dense linear algebra for small qubit registers.

Everything here is plain numpy complex128.  Registers never exceed eight
qubits, so every operation is an exact eigendecomposition or an index
manipulation; nothing is sampled and nothing is sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
# Validation floor for density-matrix eigenvalues; the sphere-quadrature
# averages the test suite builds from exact states accumulate rounding at
# this scale.
EIGENVALUE_FLOOR = -1e-10
# Eigenvalues below this magnitude count as zero for rank purposes.
RANK_TOL = 1e-12


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite two-dimensional complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation from m = m^dagger."""
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semi-definite, unit-trace matrix over a register.

    ``factor_shape`` records the tensor decomposition of the register, e.g.
    (2, 2) for two qubits.  Factor 0 is the leftmost ket, i.e. the most
    significant block of the row/column index.
    """

    matrix: np.ndarray
    factor_shape: tuple[int, ...]

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        shape = tuple(int(d) for d in self.factor_shape)
        object.__setattr__(self, "factor_shape", shape)
        dim = math.prod(shape)
        if m.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match factor shape {shape}")
        if hermiticity_defect(m) > HERMITIAN_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(complex(np.trace(m)) - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix must have unit trace, "
                             f"got {complex(np.trace(m)):.15g}")
        lowest = float(np.linalg.eigvalsh(m)[0])
        if lowest < EIGENVALUE_FLOOR:
            raise ValueError("density matrix must be positive semi-definite "
                             f"(lowest eigenvalue {lowest:.3e})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_factors(self) -> int:
        return len(self.factor_shape)


def tensor(a, b):
    """Kronecker product; two density matrices or two plain matrices."""
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.matrix, b.matrix),
                             a.factor_shape + b.factor_shape)
    if isinstance(a, DensityMatrix) or isinstance(b, DensityMatrix):
        raise TypeError("tensor expects operands of the same kind")
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every factor not listed in ``keep``.

    ``keep`` must be strictly increasing, so the surviving factors retain
    their original order.
    """
    kept = tuple(int(i) for i in keep)
    n = rho.n_factors
    if any(i < 0 or i >= n for i in kept):
        raise ValueError(f"factor index out of range for {n} factors: {kept}")
    if any(b <= a for a, b in zip(kept, kept[1:])):
        raise ValueError("keep indices must be strictly increasing")
    dims = rho.factor_shape
    reshaped = rho.matrix.reshape(dims + dims)
    n_left = n
    for idx in sorted(set(range(n)) - set(kept), reverse=True):
        reshaped = np.trace(reshaped, axis1=idx, axis2=idx + n_left)
        n_left -= 1
    kept_shape = tuple(dims[i] for i in kept)
    dim = math.prod(kept_shape)
    return DensityMatrix(reshaped.reshape(dim, dim), kept_shape)


def trace_norm(h) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix."""
    m = as_complex_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise ValueError("trace_norm expects a square matrix")
    if hermiticity_defect(m) > HERMITIAN_TOL:
        raise ValueError("trace_norm is only defined here for Hermitian input")
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def permutation_operator(perm: Sequence[int]) -> np.ndarray:
    """Unitary permuting the qubits of a register.

    Output qubit ``j`` carries what input qubit ``perm[j]`` carried.  Qubit 0
    is the leftmost factor, hence the most significant bit of a basis index.
    """
    p = tuple(int(i) for i in perm)
    n = len(p)
    if sorted(p) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    dim = 1 << n
    shifts = np.arange(n - 1, -1, -1)
    bits = (np.arange(dim)[:, None] >> shifts[None, :]) & 1
    rows = bits[:, list(p)] @ (1 << shifts)
    op = np.zeros((dim, dim), dtype=complex)
    op[rows, np.arange(dim)] = 1.0
    return op


@lru_cache(maxsize=None)
def symmetric_projector(n_qubits: int) -> np.ndarray:
    """Orthogonal projector onto the permutation-symmetric subspace.

    Closed form of the average of all n! qubit-permutation operators: a
    permutation maps basis state j to i only when both carry the same
    number k of flipped qubits, and k!(n-k)! of the n! permutations do, so
    P[i, j] = 1/C(n, k) on each excitation block and 0 elsewhere.  The
    symmetric subspace of n qubits has dimension n + 1, so the result has
    rank n + 1.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    weight = np.array([1.0 / math.comb(n_qubits, k)
                       for k in range(n_qubits + 1)])
    excitations = np.array([idx.bit_count() for idx in range(1 << n_qubits)])
    same = excitations[:, None] == excitations[None, :]
    proj = np.where(same, weight[excitations][:, None], 0.0).astype(complex)
    proj.setflags(write=False)
    return proj


def swap_operator() -> np.ndarray:
    """The two-qubit exchange operator."""
    return permutation_operator((1, 0))


def matrix_rank(m: np.ndarray) -> int:
    """Rank of a Hermitian matrix, counting |eigenvalue| >= RANK_TOL."""
    a = as_complex_matrix(m)
    if hermiticity_defect(a) > HERMITIAN_TOL:
        raise ValueError("rank counting here expects Hermitian input")
    return int(np.sum(np.abs(np.linalg.eigvalsh(a)) >= RANK_TOL))
