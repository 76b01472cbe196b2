"""Two-hypothesis state discrimination: exact bound and interference strategy.

The Helstrom bound is the ceiling for any physical measurement; the beam
splitter strategy measures only arm counts and decides by maximum posterior
probability.  Reports carry both numbers so the gap is always visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import SUM_TOL, TOL, DensityMatrix, check_register, trace_norm
from .multiport import OutcomeDistribution, Pattern, Statistics, interfere

LABELS = ("H0", "H1")


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """One arm of the binary decision problem."""

    label: str
    state: DensityMatrix
    prior: float

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}")
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError(f"prior must lie in [0, 1], got {self.prior}")


def _check_pair(h0: Hypothesis, h1: Hypothesis) -> None:
    # the strategy's "H0"/"H1" guesses name the first and second argument
    if (h0.label, h1.label) != LABELS:
        raise ValueError(f"hypotheses must be passed in the order {LABELS}")
    if h0.state.dim != h1.state.dim:
        raise ValueError("hypotheses must live on the same register")
    if abs(h0.prior + h1.prior - 1.0) > TOL:
        raise ValueError("priors must sum to one")


def helstrom_bound(h0: Hypothesis, h1: Hypothesis) -> float:
    """Best possible success probability over all measurements.

    Equals (1 + || p0 rho0 - p1 rho1 ||_1) / 2, computed by exact
    eigendecomposition of the weighted difference.
    """
    _check_pair(h0, h1)
    gamma = h0.prior * h0.state.matrix - h1.prior * h1.state.matrix
    return 0.5 * (1.0 + trace_norm(gamma))


def aligned_vs_mixed_bound(n: int) -> float:
    """Closed-form ceiling for aligned-direction vs maximally mixed, equal priors.

    The aligned state succeeds with certainty on its own subspace; the mixed
    state is caught with probability (d - d_s)/d, with d = 2**n and d_s =
    n + 1 the symmetric subspace dimension: 1 - (n + 1) / 2**(n + 1) in all.
    """
    check_register(n)
    d = 2 ** n
    return 0.5 * (1.0 + (d - (n + 1)) / d)


def map_strategy(d0: OutcomeDistribution, d1: OutcomeDistribution,
                 priors: tuple[float, float] = (0.5, 0.5)
                 ) -> tuple[dict[Pattern, str], float]:
    """Maximum-posterior decision rule over arm-count patterns.

    Returns the per-pattern guess and the total success probability.  Ties
    go to H0, which never changes the success probability.
    """
    if d0.n_arms != d1.n_arms:
        raise ValueError("distributions must share one outcome space")
    p0, p1 = priors
    if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
        raise ValueError("priors must lie in [0, 1]")
    if abs(p0 + p1 - 1.0) > TOL:
        raise ValueError("priors must sum to one")
    strategy: dict[Pattern, str] = {}
    success = 0.0
    for pattern in sorted(set(d0.probabilities) | set(d1.probabilities)):
        w0 = p0 * d0.probabilities.get(pattern, 0.0)
        w1 = p1 * d1.probabilities.get(pattern, 0.0)
        if w1 > w0:
            strategy[pattern] = "H1"
            success += w1
        else:
            strategy[pattern] = "H0"
            success += w0
    return strategy, success


@dataclass(frozen=True)
class DiscriminationReport:
    """Outcome of one discrimination task.

    Invariant: 1/2 <= p_bs <= p_helstrom <= 1 up to SUM_TOL; the arm-count
    strategy can never beat the optimal measurement: ``gap`` >= -SUM_TOL.
    """

    n: int
    statistics: Statistics
    p_helstrom: float
    p_bs: float
    strategy: dict[Pattern, str] = field(repr=False)

    @property
    def gap(self) -> float:
        return self.p_helstrom - self.p_bs

    def __post_init__(self) -> None:
        # each check is written so that a NaN fails it
        if not self.p_bs >= 0.5 - SUM_TOL:
            raise ValueError(f"strategy success {self.p_bs} below 1/2")
        if not self.p_bs <= self.p_helstrom + SUM_TOL:
            raise ValueError(f"strategy success {self.p_bs} exceeds the "
                             f"Helstrom bound {self.p_helstrom}")
        if not self.p_helstrom <= 1.0 + SUM_TOL:
            raise ValueError(f"bound {self.p_helstrom} exceeds one")


def beam_splitter_discrimination(h0: Hypothesis, h1: Hypothesis,
                                 statistics: Statistics | str
                                 ) -> DiscriminationReport:
    """Run both hypotheses through the multiport and decide from arm counts."""
    statistics = Statistics(statistics)
    # checks the pair before either hypothesis meets the multiport
    p_h = helstrom_bound(h0, h1)
    dist0 = interfere(h0.state, statistics)
    dist1 = interfere(h1.state, statistics)
    strategy, p_bs = map_strategy(dist0, dist1, (h0.prior, h1.prior))
    return DiscriminationReport(n=h0.state.n_qubits, statistics=statistics,
                                p_helstrom=p_h, p_bs=p_bs, strategy=strategy)
