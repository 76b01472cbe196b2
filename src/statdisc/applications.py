"""Uses of the interference primitive beyond plain discrimination.

Entanglement detection compares two copies of an unknown marginal against
the aligned mixture; purification projects two copies onto the symmetric
subspace; the classical model replays the whole game with probabilities
instead of amplitudes; the scan probes whether the arm-count strategy
stays optimal as the particle number grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (TOL, DensityMatrix, check_capacity, check_register,
                   partial_trace, symmetric_projector, tensor)
from .discrimination import (DiscriminationReport, Hypothesis,
                             aligned_vs_mixed_bound,
                             beam_splitter_discrimination)
from .multiport import Statistics
from .states import aligned_mixture, maximally_mixed


@dataclass(frozen=True, eq=False)
class TwoQubitPureState:
    """Pure state of one qubit pair, kept as four amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size != 4:
            raise ValueError("expected four amplitudes")
        # written so that a NaN fails it
        if not abs(np.linalg.norm(v) - 1.0) <= TOL:
            raise ValueError("amplitudes must be normalized")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def schmidt_lambda(self) -> float:
        """Smaller squared Schmidt coefficient, in [0, 1/2]."""
        s = np.linalg.svd(self.amplitudes.reshape(2, 2), compute_uv=False)
        return float(min(s) ** 2)

    @classmethod
    def from_schmidt(cls, lam: float) -> "TwoQubitPureState":
        if not 0.0 <= lam <= 0.5:
            raise ValueError(f"schmidt weight must lie in [0, 1/2], got {lam}")
        return cls(np.array([math.sqrt(1.0 - lam), 0.0, 0.0, math.sqrt(lam)]))

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def detect_entanglement(psi: TwoQubitPureState,
                        statistics: Statistics) -> float:
    """Success probability of telling two copies of psi's marginal apart
    from a separable pair.

    Two halves of two copies of ``psi`` interfere at a two-port.  If psi is
    a product state its halves are aligned pure states; if it is maximally
    entangled they are independently maximally mixed.  The comparison
    hypothesis is therefore the aligned mixture.
    """
    marginal = partial_trace(psi.density(), keep=(1,))
    pair = tensor(marginal, marginal)
    h0 = Hypothesis("H0", aligned_mixture(2), 0.5)
    h1 = Hypothesis("H1", pair, 0.5)
    return beam_splitter_discrimination(h0, h1, statistics).p_bs


def purify_symmetric(rho: DensityMatrix) -> tuple[DensityMatrix, float]:
    """Project two copies of a qubit onto the symmetric subspace.

    Returns the single-qubit marginal of the projected state and the
    success probability.  The Bloch direction is preserved and the Bloch
    length never decreases.
    """
    if rho.n_qubits != 1:
        raise ValueError("purification expects a single qubit")
    proj = symmetric_projector(2)
    joint = tensor(rho, rho).matrix
    projected = proj @ joint @ proj
    # success = (3 + r^2)/4 >= 3/4 for any qubit, so the division is safe
    success = float(np.trace(projected).real)
    normalized = DensityMatrix(projected / success)
    return partial_trace(normalized, keep=(0,)), success


def _capped_routings(n_arms: int, size: int, cap: int) -> int:
    """Arm assignments of ``size`` labeled particles, at most ``cap`` per arm.

    One arm's exponential generating function is sum_{j<=cap} x^j/j!, so
    the count is size! [x^size] (sum_{j<=cap} x^j/j!)^n_arms.
    """
    arm = [Fraction(1, math.factorial(j)) for j in range(cap + 1)]
    series = [Fraction(1)] + [Fraction(0)] * size
    for _ in range(n_arms):
        series = [sum(series[i - j] * arm[j] for j in range(min(i, cap) + 1))
                  for i in range(size + 1)]
    return int(math.factorial(size) * series[size])


def classical_pauli_success(n: int, interpretation: str = "standard") -> float:
    """Classical particles with an exclusion rule instead of amplitudes.

    Each particle carries a binary internal label and is routed uniformly
    at random, except that routings violating the exclusion rule are thrown
    away and the rest renormalized per spin assignment.  The guess is
    "aligned" exactly when all arms differ.  ``standard`` forbids two equal
    labels per arm; ``literal`` forbids three.

    Probabilities are exact fractions from a closed count.  With k up
    labels, the only routings that leave every arm distinct put the n
    particles on the n arms one to one, and n! of those obey either rule,
    so P(distinct | k) = n! / (R(n, k) R(n, n - k)) with R the capped
    routing count.  The mixed hypothesis weighs k by C(n, k) / 2^n.
    """
    check_register(n)
    if interpretation not in ("standard", "literal"):
        raise ValueError("interpretation must be 'standard' or 'literal'")
    cap = 1 if interpretation == "standard" else 2

    routings = [_capped_routings(n, ups, cap) for ups in range(n + 1)]
    distinct_given_ups = [
        Fraction(math.factorial(n), routings[ups] * routings[n - ups])
        for ups in range(n + 1)]

    # aligned hypothesis: every particle carries the same label
    p_correct_aligned = distinct_given_ups[0]
    # mixed hypothesis: labels independently uniform; correct when arms repeat
    p_correct_mixed = sum(math.comb(n, ups) * (1 - distinct_given_ups[ups])
                          for ups in range(n + 1)) / 2 ** n
    return float(p_correct_aligned / 2 + p_correct_mixed / 2)


def classical_comparison(n_max: int = 6) -> list[dict]:
    """Side-by-side table of both exclusion readings against the exact bound."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    check_capacity(n_max)
    rows = []
    for n in range(2, n_max + 1):
        standard = classical_pauli_success(n, "standard")
        literal = classical_pauli_success(n, "literal")
        bound = aligned_vs_mixed_bound(n)
        rows.append({"n": n, "standard": standard, "literal": literal,
                     "bound": bound,
                     "standard_deviation": standard - bound,
                     "literal_deviation": literal - bound})
    return rows


def scan_discrimination(n_max: int, statistics: Statistics
                        ) -> list[DiscriminationReport]:
    """Aligned-vs-mixed discrimination for every particle number up to n_max.

    For two and three fermions and for two and three bosons the arm-count
    strategy meets the Helstrom bound exactly (up to rounding, which can
    leave the gap a few ulp below zero); beyond that the gap is recorded as
    data, not asserted, since whether interference stays optimal for larger
    registers is an open question.
    """
    check_register(n_max)
    return [beam_splitter_discrimination(
                Hypothesis("H0", aligned_mixture(n), 0.5),
                Hypothesis("H1", maximally_mixed(n), 0.5), statistics)
            for n in range(1, n_max + 1)]
