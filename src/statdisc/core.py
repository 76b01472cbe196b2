"""Exact dense linear algebra for small qubit registers.

Every register is n qubits, the internal states of n two-level particles,
so a ``DensityMatrix`` is a 2**n x 2**n matrix and reads n from its
dimension.  Everything here is plain numpy complex128.  A register holds
an integer from 1 to ``MAX_QUBITS`` (eight) qubits, a rule that one
function, ``check_register``, enforces wherever a size enters the package,
before any work of that size: on n where it is given, on a
``DensityMatrix``'s dimension, and, in ``MultiportUnitary``, on the
multiport's own arms.
So every operation is an exact eigendecomposition or an index
manipulation; nothing is sampled and nothing is sparse.

This module also holds the package's two tolerances, ``TOL`` and
``SUM_TOL``; no other module defines its own.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

# One dense operation (a product, a trace, a norm) on entries of order one
# leaves a few ulp of rounding, about 1e-15; this is that with a wide
# margin, and still far below any physical difference the package reports.
TOL = 1e-12
# Sums over many terms and eigensolves accumulate rounding with the size
# of the register, and the sphere-quadrature averages the test suite builds
# from exact states carry it at this scale.
SUM_TOL = 1e-10

# Largest register evaluated exactly: a register is 1 to 8 qubits, and a
# multiport 1 to 8 arms, one particle each.  Every published number lies
# within it and dense 2**n matrices stay small (256 x 256).  The Fock
# evolution grows much faster: at n = 8 the expansions of one fermion task
# hold 0.74 million outputs (0.13-0.18 s on a 2-core Xeon), and those of a
# boson task 22 million (3.7-5.0 s); the memo keeps their spin-0 half, 0.37
# and 11.1 million, at 20 bytes each.  On that machine, over three runs
# each timed by wait4, `discriminate --n 8` peaks at 52 MB RSS for
# fermions (0.44-1.5 s, median 0.57 s) and 378 MB for bosons (5.6-6.3 s,
# median 5.7 s).  Raise this only when the benchmark shows a scan at the
# new size fits its time and memory.
MAX_QUBITS = 8


class CapacityError(Exception):
    """Raised when a request needs a register beyond ``MAX_QUBITS``."""


def check_register(n: int) -> None:
    """Refuse a register size n that is not an integer (``TypeError``),
    below one or above ``MAX_QUBITS``."""
    if operator.index(n) < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_QUBITS:
        raise CapacityError(f"n = {n} is above the {MAX_QUBITS}-qubit limit "
                            "of exact evaluation")


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite two-dimensional complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation from m = m^dagger."""
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semi-definite, unit-trace matrix over n qubits.

    n is read off the dimension 2**n.  Qubit 0 is the leftmost ket, i.e. the
    most significant bit of the row/column index.

    The matrix is read-only, so one instance can be shared.  Construction
    validates it with the eigenvalues alone, refusing a lowest eigenvalue
    below ``-SUM_TOL``; a matrix with no imaginary part is real symmetric,
    so its eigenvalues come from the faster real solver.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix)
        dim = m.shape[0]
        if m.shape != (dim, dim) or dim < 1 or dim & (dim - 1):
            raise ValueError(f"matrix shape {m.shape} is not that of a "
                             "register of qubits")
        # before the copy and the eigensolve
        check_register(dim.bit_length() - 1)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if hermiticity_defect(m) > TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(complex(np.trace(m)) - 1.0) > TOL:
            raise ValueError(f"density matrix must have unit trace, "
                             f"got {complex(np.trace(m)):.15g}")
        lowest = float(np.linalg.eigvalsh(m if m.imag.any() else m.real)[0])
        if lowest < -SUM_TOL:
            raise ValueError("density matrix must be positive semi-definite "
                             f"(lowest eigenvalue {lowest:.3e})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two density matrices."""
    if not (isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix)):
        raise TypeError("tensor expects two density matrices")
    # before the product: two 8-qubit factors would allocate 69 GB
    check_register(a.n_qubits + b.n_qubits)
    return DensityMatrix(np.kron(a.matrix, b.matrix))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every qubit not listed in ``keep``.

    ``keep`` must be strictly increasing integers, so the surviving qubits
    retain their original order.
    """
    kept = tuple(map(operator.index, keep))
    if not kept:
        raise ValueError("keep names no qubit, but the kept register's "
                         "n must be at least 1")
    n = rho.n_qubits
    if any(i < 0 or i >= n for i in kept):
        raise ValueError(f"qubit index out of range for {n} qubits: {kept}")
    if any(b <= a for a, b in zip(kept, kept[1:])):
        raise ValueError("keep indices must be strictly increasing")
    reshaped = rho.matrix.reshape((2,) * (2 * n))
    n_left = n
    for idx in sorted(set(range(n)) - set(kept), reverse=True):
        reshaped = np.trace(reshaped, axis1=idx, axis2=idx + n_left)
        n_left -= 1
    dim = 1 << len(kept)
    return DensityMatrix(reshaped.reshape(dim, dim))


def trace_norm(h) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix."""
    m = as_complex_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise ValueError("trace_norm expects a square matrix")
    if hermiticity_defect(m) > TOL:
        raise ValueError("trace_norm is only defined here for Hermitian input")
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


# check_register bounds this cache to MAX_QUBITS entries
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
    check_register(n_qubits)
    weight = np.array([1.0 / math.comb(n_qubits, k)
                       for k in range(n_qubits + 1)])
    excitations = np.array([idx.bit_count() for idx in range(1 << n_qubits)])
    same = excitations[:, None] == excitations[None, :]
    proj = np.where(same, weight[excitations][:, None], 0.0).astype(complex)
    proj.setflags(write=False)
    return proj


def swap_operator() -> np.ndarray:
    """The two-qubit exchange operator: |ab> -> |ba>."""
    return np.array([[1, 0, 0, 0],
                     [0, 0, 1, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1]], dtype=complex)
