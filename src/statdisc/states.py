"""Constructors for the states being discriminated.

The direction-averaged mixtures are closed forms (exact rational
matrices).  Their defining averages over the sphere are rebuilt by
quadrature in the test suite, as an independent oracle, from the
fixed-direction states that live there with it.

The fixed hypothesis states, ``aligned_mixture(n)``, ``maximally_mixed(n)``
and ``antialigned_mixture()``, depend on n alone, so each is built and
validated once per process and the same read-only ``DensityMatrix`` is
returned to every caller.  Its arm-count distributions are kept by
``multiport.interfere``, once per statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (DensityMatrix, check_register, swap_operator,
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


# check_register bounds this cache to MAX_QUBITS entries
@lru_cache(maxsize=None)
def aligned_mixture(n: int) -> DensityMatrix:
    """n qubits aligned along one uniformly random, unknown direction.

    The sphere average of the product state is the normalized projector
    onto the symmetric subspace, so the state has rank n + 1 with equal
    weights 1/(n + 1).
    """
    return DensityMatrix(symmetric_projector(n) / (n + 1))


# one entry: the state takes no argument
@lru_cache(maxsize=None)
def antialigned_mixture() -> DensityMatrix:
    """Qubit pair pointing in opposite directions along a random axis.

    Closed form I/3 - SWAP/6: eigenvalue 1/2 on the singlet and 1/6 on each
    triplet state.
    """
    m = np.eye(4, dtype=complex) / 3.0 - swap_operator() / 6.0
    return DensityMatrix(m)


# check_register bounds this cache to MAX_QUBITS entries
@lru_cache(maxsize=None)
def maximally_mixed(n: int) -> DensityMatrix:
    """Every qubit independently maximally mixed: I / 2**n."""
    check_register(n)
    dim = 2 ** n
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def qubit_density(length: float, omega: BlochDirection) -> DensityMatrix:
    """Single qubit with Bloch vector of the given length along ``omega``."""
    if not 0.0 <= length <= 1.0:
        raise ValueError(f"Bloch length must lie in [0, 1], got {length}")
    nx, ny, nz = omega.unit_vector()
    m = 0.5 * (np.eye(2, dtype=complex)
               + length * (nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z))
    return DensityMatrix(m)


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """Bloch components (x, y, z) of a single-qubit state."""
    if rho.n_qubits != 1:
        raise ValueError("bloch_vector expects a single qubit")
    return np.array([np.trace(rho.matrix @ p).real
                     for p in (PAULI_X, PAULI_Y, PAULI_Z)])
