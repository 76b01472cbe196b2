"""Constructors for the states being discriminated.

The direction-averaged mixtures are closed forms (exact rational
matrices).  Their defining averages over the sphere are rebuilt by
quadrature in the test suite, as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (DensityMatrix, check_capacity, swap_operator,
                   symmetric_projector)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class BlochDirection:
    """Point on the unit sphere: polar angle in [0, pi], azimuth in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    def unit_vector(self) -> np.ndarray:
        s = math.sin(self.theta)
        return np.array([s * math.cos(self.phi),
                         s * math.sin(self.phi),
                         math.cos(self.theta)])


def bloch_state(omega: BlochDirection) -> np.ndarray:
    """Qubit ket pointing along ``omega``."""
    return np.array([math.cos(omega.theta / 2.0),
                     np.exp(1j * omega.phi) * math.sin(omega.theta / 2.0)])


def orthogonal_state(omega: BlochDirection) -> np.ndarray:
    """Qubit ket pointing along the antipode of ``omega``."""
    return np.array([math.sin(omega.theta / 2.0),
                     -np.exp(1j * omega.phi) * math.cos(omega.theta / 2.0)])


def aligned_direction_state(omega: BlochDirection, n: int) -> DensityMatrix:
    """n qubits all pointing along the same known direction."""
    if n < 1:
        raise ValueError("n must be at least 1")
    check_capacity(n)
    ket = bloch_state(omega)
    single = np.outer(ket, ket.conj())
    m = single
    for _ in range(n - 1):
        m = np.kron(m, single)
    return DensityMatrix(m, (2,) * n)


def antialigned_direction_state(omega: BlochDirection) -> DensityMatrix:
    """Qubit pair pointing in opposite directions along a known axis."""
    up = bloch_state(omega)
    down = orthogonal_state(omega)
    m = np.kron(np.outer(up, up.conj()), np.outer(down, down.conj()))
    return DensityMatrix(m, (2, 2))


def aligned_mixture(n: int) -> DensityMatrix:
    """n qubits aligned along one uniformly random, unknown direction.

    The sphere average of the product state is the normalized projector
    onto the symmetric subspace, so the state has rank n + 1 with equal
    weights 1/(n + 1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return DensityMatrix(symmetric_projector(n) / (n + 1), (2,) * n)


def antialigned_mixture() -> DensityMatrix:
    """Qubit pair pointing in opposite directions along a random axis.

    Closed form I/3 - SWAP/6: eigenvalue 1/2 on the singlet and 1/6 on each
    triplet state.
    """
    m = np.eye(4, dtype=complex) / 3.0 - swap_operator() / 6.0
    return DensityMatrix(m, (2, 2))


def maximally_mixed(n: int) -> DensityMatrix:
    """Every qubit independently maximally mixed: I / 2**n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    check_capacity(n)
    dim = 2 ** n
    return DensityMatrix(np.eye(dim, dtype=complex) / dim, (2,) * n)


def qubit_density(length: float, omega: BlochDirection) -> DensityMatrix:
    """Single qubit with Bloch vector of the given length along ``omega``."""
    if not 0.0 <= length <= 1.0:
        raise ValueError(f"Bloch length must lie in [0, 1], got {length}")
    nx, ny, nz = omega.unit_vector()
    m = 0.5 * (np.eye(2, dtype=complex)
               + length * (nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z))
    return DensityMatrix(m, (2,))


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """Bloch components (x, y, z) of a single-qubit state."""
    if rho.factor_shape != (2,):
        raise ValueError("bloch_vector expects a single qubit")
    return np.array([np.trace(rho.matrix @ p).real
                     for p in (PAULI_X, PAULI_Y, PAULI_Z)])
