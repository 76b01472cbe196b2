"""Second-quantized interference of identical two-level particles.

Mode convention, load-bearing for every fermionic sign below:

* a particle in arm ``a`` with internal state ``s`` occupies mode
  ``2*a + s`` (arm index major, internal index minor);
* a basis configuration ``(n_0, n_1, ...)`` stands for the creation
  operators applied in ascending mode order to the vacuum, normalized;
* creating into mode m of a fermionic configuration picks up the sign
  (-1) ** (number of occupied modes below m).

Evolution substitutes each creation operator by its image under the arm
unitary and multiplies the resulting operator polynomial out term by term.
No permanent or determinant formulas anywhere.  The independent cross-check,
explicit (anti)symmetrization of labeled particles, lives in the test suite.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import (SUM_TOL, TOL, DensityMatrix, as_complex_matrix,
                   check_capacity)

Occupation = tuple[int, ...]
Pattern = tuple[int, ...]


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


@dataclass(frozen=True, eq=False)
class MultiportUnitary:
    """Balanced n-arm unitary: every entry has modulus 1/sqrt(n).

    It also carries the memo of what it does to each input configuration
    (see ``_expand_configuration``).
    """

    matrix: np.ndarray
    n: int = field(init=False)  # the side of the square matrix

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix).copy()
        object.__setattr__(self, "n", m.shape[0])
        if m.shape != (self.n, self.n):
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if np.max(np.abs(m.conj().T @ m - np.eye(self.n))) > TOL:
            raise ValueError("matrix must be unitary")
        if np.max(np.abs(np.abs(m) - 1.0 / math.sqrt(self.n))) > TOL:
            raise ValueError("matrix must be balanced: all entry moduli 1/sqrt(n)")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        # the expansion memo lives exactly as long as the unitary it describes
        object.__setattr__(self, "_expansions", {})


# check_capacity bounds this cache to MAX_QUBITS entries
@lru_cache(maxsize=None)
def dft_unitary(n: int) -> MultiportUnitary:
    """The discrete-Fourier multiport: u[a, b] = exp(2i pi a b / n) / sqrt(n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    check_capacity(n)
    a = np.arange(n)
    m = np.exp(2j * math.pi * np.outer(a, a) / n) / math.sqrt(n)
    return MultiportUnitary(m)


@dataclass(frozen=True, eq=False)
class FockState:
    """Superposition of occupation configurations at fixed particle number.

    ``amplitudes`` maps configurations (length ``2 * n_arms``, mode order as
    in the module docstring) to complex amplitudes.  Treated as immutable.
    """

    statistics: Statistics
    amplitudes: dict[Occupation, complex]
    n_arms: int = field(init=False)  # half the first configuration's length

    def __post_init__(self) -> None:
        if not self.amplitudes:
            raise ValueError("a Fock state needs at least one configuration")
        first = next(iter(self.amplitudes))
        object.__setattr__(self, "n_arms", len(first) // 2)
        n_particles = sum(first)
        check_capacity(self.n_arms)
        check_capacity(n_particles)
        norm_sq = 0.0
        for config, amp in self.amplitudes.items():
            if len(config) != 2 * self.n_arms:
                raise ValueError(f"configuration {config} does not have "
                                 f"{2 * self.n_arms} modes")
            if any(k < 0 for k in config):
                raise ValueError("occupation numbers must be non-negative")
            if sum(config) != n_particles:
                raise ValueError(f"configuration {config} does not hold "
                                 f"{n_particles} particles")
            if self.statistics is Statistics.FERMION and any(k > 1 for k in config):
                raise ValueError("fermionic occupation numbers cannot exceed 1")
            norm_sq += abs(amp) ** 2
        if abs(norm_sq - 1.0) > SUM_TOL:
            raise ValueError(f"state must be normalized, got |psi|^2 = {norm_sq!r}")


Ensemble = list[tuple[float, FockState]]


def _pure_fock(vec: np.ndarray, statistics: Statistics) -> FockState:
    """One particle per arm, internal register given by the flat ``vec``.

    Basis index bit i (most significant first) is the internal state of the
    particle entering arm i.  With one particle per arm the creation
    operators already appear in ascending mode order, so amplitudes carry
    over without sign for either statistics.
    """
    n = vec.size.bit_length() - 1
    norm = np.linalg.norm(vec)
    if norm < TOL:
        raise ValueError("internal state vector must be nonzero")
    v = vec / norm
    amplitudes: dict[Occupation, complex] = {}
    for idx in range(v.size):
        c = complex(v[idx])
        if abs(c) <= TOL:
            continue
        config = [0] * (2 * n)
        for arm in range(n):
            spin = (idx >> (n - 1 - arm)) & 1
            config[2 * arm + spin] = 1
        amplitudes[tuple(config)] = c
    return FockState(statistics, amplitudes)


def prepare_input(internal, statistics: Statistics) -> Ensemble:
    """Load an internal state, one particle per arm, into Fock form.

    A state vector gives a single pure Fock state of weight one.  A density
    matrix is eigendecomposed and each eigenvector above the weight cutoff
    becomes an ensemble member; any orthonormal eigenbasis of a degenerate
    spectrum yields the same downstream statistics.
    """
    if isinstance(internal, DensityMatrix):
        vals, vecs = np.linalg.eigh(internal.matrix)
        ensemble = [(float(w), _pure_fock(vecs[:, i], statistics))
                    for i, w in enumerate(vals) if w > TOL]
        if not ensemble:
            raise ValueError("density matrix has no weight above the cutoff")
        return ensemble
    v = np.asarray(internal, dtype=complex).reshape(-1)
    n = v.size.bit_length() - 1
    if 2 ** n != v.size or n < 1:
        raise ValueError(f"internal register dimension {v.size} is not a "
                         "power of two")
    check_capacity(n)
    return [(1.0, _pure_fock(v, statistics))]


def _apply_creation(config: Occupation, mode: int,
                    statistics: Statistics):
    """Create one particle in ``mode``; returns (factor, new_config) or None."""
    occupied = config[mode]
    if statistics is Statistics.FERMION:
        if occupied:
            return None
        sign = -1.0 if sum(config[:mode]) % 2 else 1.0
        return sign, config[:mode] + (1,) + config[mode + 1:]
    return math.sqrt(occupied + 1.0), config[:mode] + (occupied + 1,) + config[mode + 1:]


def _expand_configuration(config: Occupation, statistics: Statistics,
                          u: MultiportUnitary) -> dict[Occupation, complex]:
    """Output amplitudes of one unit-amplitude input configuration.

    Independent of the rest of the superposition, so memoized on ``u``
    across ensemble members and calls.
    """
    key = (config, statistics)
    cached = u._expansions.get(key)
    if cached is not None:
        return cached
    n = u.n
    vacuum = (0,) * (2 * n)
    modes = [m for m, k in enumerate(config) for _ in range(k)]
    # |config> = prod(creations, ascending) / sqrt(prod n_m!) applied to vacuum
    start = 1.0 / math.sqrt(math.prod(math.factorial(k) for k in config))
    working: dict[Occupation, complex] = {vacuum: start}
    # rightmost operator of the ascending product acts on the vacuum first
    for mode in reversed(modes):
        arm, spin = divmod(mode, 2)
        row = u.matrix[arm]
        grown: dict[Occupation, complex] = defaultdict(complex)
        for cfg, amp in working.items():
            for dest in range(n):
                created = _apply_creation(cfg, 2 * dest + spin, statistics)
                if created is None:
                    continue
                factor, cfg_new = created
                grown[cfg_new] += amp * row[dest] * factor
        working = grown
    result = dict(working)
    u._expansions[key] = result
    return result


def evolve(state: FockState, u: MultiportUnitary) -> FockState:
    """Send the state through the multiport: a+_{a,s} -> sum_b u[a,b] a+_{b,s}."""
    if u.n != state.n_arms:
        raise ValueError(f"unitary has {u.n} arms, state has {state.n_arms}")
    out: dict[Occupation, complex] = defaultdict(complex)
    for config, amp in state.amplitudes.items():
        for cfg, a in _expand_configuration(config, state.statistics, u).items():
            out[cfg] += amp * a
    # amplitudes below TOL are interference zeros
    kept = {cfg: a for cfg, a in out.items() if abs(a) > TOL}
    return FockState(state.statistics, kept)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of per-arm particle counts, internal states traced out."""

    probabilities: dict[Pattern, float]
    n_arms: int = field(init=False)  # the first pattern's length, 0 if none

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_arms",
                           len(next(iter(self.probabilities), ())))
        total = 0.0
        for pattern, p in self.probabilities.items():
            if len(pattern) != self.n_arms:
                raise ValueError(f"pattern {pattern} does not cover "
                                 f"{self.n_arms} arms")
            if p < -TOL:
                raise ValueError(f"negative probability {p} for {pattern}")
            total += p
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities must sum to one, got {total!r}")

    def probability(self, pattern: Pattern) -> float:
        return self.probabilities.get(tuple(pattern), 0.0)

    def antibunch_probability(self) -> float:
        """Probability that every particle exits through its own arm."""
        return self.probability((1,) * self.n_arms)


def spatial_distribution(ensemble: Ensemble) -> OutcomeDistribution:
    """Arm-count distribution of a weighted ensemble of Fock states."""
    if not ensemble:
        raise ValueError("ensemble must not be empty")
    probs: dict[Pattern, float] = defaultdict(float)
    for weight, state in ensemble:
        for config, amp in state.amplitudes.items():
            pattern = tuple(config[2 * a] + config[2 * a + 1]
                            for a in range(state.n_arms))
            probs[pattern] += weight * abs(amp) ** 2
    return OutcomeDistribution(dict(probs))


def interfere(internal, statistics: Statistics,
              unitary: MultiportUnitary | None = None) -> OutcomeDistribution:
    """Full pipeline: load, evolve through the multiport, count arms.

    ``internal`` is a state vector or DensityMatrix over n qubits; the
    default unitary is the n-arm discrete-Fourier multiport.
    """
    ensemble = prepare_input(internal, statistics)
    u = dft_unitary(ensemble[0][1].n_arms) if unitary is None else unitary
    evolved = [(w, evolve(s, u)) for w, s in ensemble]
    return spatial_distribution(evolved)
