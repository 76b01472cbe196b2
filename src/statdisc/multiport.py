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

The kernel does this on numpy arrays of integer configuration codes, and
performs the floating-point operations of the plain dict loop
``out[config] += term`` in that loop's order: the terms are listed as the
loop visits them, equal keys are grouped by a stable sort, and
``np.bincount`` adds each group's terms one after the other from 0.0.
Complex products are spelled out in real arithmetic, and moduli and
squares are taken with ``np.hypot`` and ``np.float_power``, because numpy's
vectorised complex product, ``abs`` and ``** 2`` round differently from
the scalar operations the loop performed.  Every amplitude and
probability, and the key order of every dict, is therefore the dict
loop's bit for bit; that loop lives on in the test suite as an oracle.

Two memos live on each ``MultiportUnitary``: the expansion of every input
configuration met so far, and, within a fixed budget, the plan of each
small ensemble met so far (how its outputs merge and in what order), so a
repeated small call does only its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import product
from typing import NamedTuple

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

    It also carries the memos of what it does to each input configuration
    and to each small ensemble (see ``_expand_configuration`` and
    ``_Plan``).
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
        # the memos live exactly as long as the unitary they describe
        object.__setattr__(self, "_expansions", {})
        object.__setattr__(self, "_plans", {})


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
            if min(config, default=0) < 0:
                raise ValueError("occupation numbers must be non-negative")
            if sum(config) != n_particles:
                raise ValueError(f"configuration {config} does not hold "
                                 f"{n_particles} particles")
            if (self.statistics is Statistics.FERMION
                    and max(config, default=0) > 1):
                raise ValueError("fermionic occupation numbers cannot exceed 1")
            norm_sq += abs(amp) ** 2
        if abs(norm_sq - 1.0) > SUM_TOL:
            raise ValueError(f"state must be normalized, got |psi|^2 = {norm_sq!r}")


Ensemble = list[tuple[float, FockState]]


def _one_per_arm(n: int) -> list[Occupation]:
    """The configuration that each basis index of n qubits stands for.

    Basis index bit i (most significant first) is the internal state s of
    the particle entering arm i, which occupies mode 2*i + s.
    """
    return [sum(arms, ()) for arms in product(((1, 0), (0, 1)), repeat=n)]


def _pure_fock(vec: np.ndarray, statistics: Statistics,
               configs: list[Occupation]) -> FockState:
    """One particle per arm, internal register given by the flat ``vec``.

    Basis index i stands for ``configs[i]`` (see ``_one_per_arm``).  With
    one particle per arm the creation operators already appear in
    ascending mode order, so amplitudes carry over without sign for either
    statistics.
    """
    norm = np.linalg.norm(vec)
    if norm < TOL:
        raise ValueError("internal state vector must be nonzero")
    v = vec / norm
    return FockState(statistics, {config: c for config, c
                                  in zip(configs, v.tolist())
                                  if abs(c) > TOL})


def prepare_input(internal, statistics: Statistics) -> Ensemble:
    """Load an internal state, one particle per arm, into Fock form.

    A state vector gives a single pure Fock state of weight one.  A density
    matrix is eigendecomposed and each eigenvector above the weight cutoff
    becomes an ensemble member; any orthonormal eigenbasis of a degenerate
    spectrum yields the same downstream statistics.
    """
    if isinstance(internal, DensityMatrix):
        vals, vecs = np.linalg.eigh(internal.matrix)
        configs = _one_per_arm(internal.n_qubits)
        ensemble = [(float(w), _pure_fock(vecs[:, i], statistics, configs))
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
    return [(1.0, _pure_fock(v, statistics, _one_per_arm(n)))]


class _Expansion(NamedTuple):
    """What the multiport does to one unit-amplitude input configuration.

    Output ``i`` is configuration ``codes[i]`` (coded as ``_place_values``
    says) with amplitude ``amplitudes[i]``; ``patterns[i]`` codes its arm
    counts as the digits, base n_particles + 1, of a number whose lowest
    digit is arm 0.
    """

    codes: np.ndarray
    amplitudes: np.ndarray
    patterns: np.ndarray


def _place_values(statistics: Statistics, n_particles: int,
                  n_modes: int) -> tuple[int, np.ndarray]:
    """Base and per-mode place values of the configuration code.

    A configuration is coded as sum_m n_m * base**m, with base 2 for
    fermions and n_particles + 1 for bosons, so no occupation of a valid
    configuration overflows its digit.  The capacity rule caps particles
    and arms at eight, so codes stay below 9**16 < 2**51.
    """
    base = 2 if statistics is Statistics.FERMION else n_particles + 1
    return base, base ** np.arange(n_modes, dtype=np.int64)


def _configurations(codes: np.ndarray, statistics: Statistics,
                    n_particles: int, n_modes: int) -> list[Occupation]:
    """The occupation tuples that ``codes`` stand for."""
    base, place = _place_values(statistics, n_particles, n_modes)
    return list(map(tuple, (codes[:, None] // place % base).tolist()))


def _pattern_codes(occupations: np.ndarray, n_particles: int) -> np.ndarray:
    """Arm-count pattern of each row of mode occupations, coded as
    ``_Expansion`` says."""
    counts = occupations[:, 0::2] + occupations[:, 1::2]
    return counts @ (n_particles + 1) ** np.arange(counts.shape[1],
                                                   dtype=np.int64)


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort equal keys together, each run of them in input order.

    Returns the stable sorting permutation, the run of every sorted key
    and the sorted position where each run starts.  ``np.bincount(group,
    terms[perm])`` then adds each key's terms in input order, one after
    the other from 0.0, as the dict loop ``out[key] += term`` does, and
    ``argsort(perm[starts])`` lists the runs in that dict's key order.
    """
    perm = np.argsort(keys, kind="stable")
    ordered = keys[perm]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return perm, np.cumsum(new) - 1, np.flatnonzero(new)


def _expand_configuration(config: Occupation, statistics: Statistics,
                          u: MultiportUnitary) -> _Expansion:
    """Output amplitudes of one unit-amplitude input configuration.

    Independent of the rest of the superposition, so memoized on ``u``
    across ensemble members and calls.
    """
    key = (config, statistics)
    cached = u._expansions.get(key)
    if cached is not None:
        return cached
    n_particles = sum(config)
    base, place = _place_values(statistics, n_particles, len(config))
    modes = [m for m, k in enumerate(config) for _ in range(k)]
    # |config> = prod(creations, ascending) / sqrt(prod n_m!) applied to vacuum
    codes = np.zeros(1, dtype=np.int64)
    re = np.array([1.0 / math.sqrt(math.prod(math.factorial(k)
                                             for k in config))])
    im = np.zeros(1)
    # rightmost operator of the ascending product acts on the vacuum first;
    # one step creates into mode 2 * dest + spin for every dest, and its
    # terms run configuration-major, dest-minor, as the loop visits them
    for mode in reversed(modes):
        arm, spin = divmod(mode, 2)
        row_re, row_im = u.matrix.real[arm], u.matrix.imag[arm]
        dest = place[spin::2]
        held, amp_re, amp_im = codes[:, None], re[:, None], im[:, None]
        created = held + dest
        # amp * row[dest], rounded as numpy rounds a scalar complex product
        term_re = amp_re * row_re - amp_im * row_im
        term_im = amp_re * row_im + amp_im * row_re
        if statistics is Statistics.FERMION:
            # the sign (-1) ** (number of occupied modes below the new one)
            sign = 1.0 - 2.0 * (np.bitwise_count(held & (dest - 1)) & 1)
            free = (held & dest) == 0
            created, term_re, term_im = (created[free], (term_re * sign)[free],
                                         (term_im * sign)[free])
        else:
            factor = np.sqrt(held // dest % base + 1.0)
            created = created.ravel()
            term_re = (term_re * factor).ravel()
            term_im = (term_im * factor).ravel()
        perm, group, starts = _groups(created)
        order = np.argsort(perm[starts])
        codes = created[perm[starts[order]]]
        re = np.bincount(group, term_re[perm])[order]
        im = np.bincount(group, term_im[perm])[order]
    digits = codes[:, None] // place % base
    # a creation into an occupied fermion mode would carry into the next
    # digit and lose a particle
    if np.any(digits.sum(axis=1) != n_particles):
        raise ValueError(f"an output of {config} does not hold "
                         f"{n_particles} particles")
    amplitudes = np.empty(codes.size, dtype=complex)
    amplitudes.real = re
    amplitudes.imag = im
    result = _Expansion(codes, amplitudes, _pattern_codes(digits, n_particles))
    for a in result:
        a.setflags(write=False)
    u._expansions[key] = result
    return result


class _Arms:
    """How a list of output configurations falls into arm-count patterns.

    ``patterns`` codes each output's pattern as ``_Expansion`` does.
    """

    def __init__(self, patterns: np.ndarray, n_particles: int, n_arms: int):
        self.perm, self.group, self.starts = _groups(patterns)
        base = n_particles + 1
        digits = (patterns[self.perm[self.starts], None]
                  // base ** np.arange(n_arms) % base)
        self.labels = list(map(tuple, digits.tolist()))

    def count(self, kept: np.ndarray,
              probabilities: np.ndarray) -> OutcomeDistribution:
        """``probs[pattern] += p`` over the kept outputs, in order.

        Dropped outputs carry probability 0.0, which leaves every sum as
        it is; a pattern appears at its first kept output, or not at all.
        """
        totals = np.bincount(self.group, probabilities[self.perm])
        none = kept.size
        first = np.minimum.reduceat(np.where(kept[self.perm], self.perm,
                                             none), self.starts)
        present = np.flatnonzero(first < none)
        order = present[np.argsort(first[present])]
        return OutcomeDistribution(dict(zip(
            [self.labels[i] for i in order.tolist()], totals[order])))


class _Plan:
    """How an ensemble passes through the multiport.

    A plan depends on the members' configurations, not on their
    amplitudes: it lists every expansion output in the dict loop's order
    (member by member, configuration by configuration), the merge of equal
    output configurations within a member, and the merged outputs in the
    order in which the loop first meets them.
    """

    def __init__(self, supports: tuple[tuple[Occupation, ...], ...],
                 statistics: Statistics, u: MultiportUnitary):
        terms = [_expand_configuration(config, statistics, u)
                 for support in supports for config in support]
        lengths = [e.codes.size for e in terms]
        self.size = sum(lengths)
        self.term = np.repeat(np.arange(len(terms)), lengths)
        out = np.concatenate([e.amplitudes for e in terms])
        self.out_re = out.real.copy()
        self.out_im = out.imag.copy()
        owner = np.repeat(np.arange(len(supports)),
                          [len(s) for s in supports])[self.term]
        codes = np.concatenate([e.codes for e in terms])
        n_particles, n_modes = sum(supports[0][0]), len(supports[0][0])
        base, place = _place_values(statistics, n_particles, n_modes)
        # member-major keys keep the members apart: at most 2**8 members
        # of codes below 2**51 stay inside int64
        self.perm, group, starts = _groups(owner * (base * place[-1]) + codes)
        first = self.perm[starts]
        order = np.argsort(first)
        first = first[order]
        # number the merged outputs in the loop's order
        rank = np.empty(order.size, dtype=np.intp)
        rank[order] = np.arange(order.size)
        self.group = rank[group]
        self.owner = owner[first]
        self.codes = codes[first]
        self.patterns = np.concatenate([e.patterns for e in terms])[first]
        self.shape = n_particles, n_modes // 2

    @cached_property
    def arms(self) -> _Arms:
        """Built at the first count, after the first run: built with the
        plan, its arrays would add to that run's peak memory."""
        return _Arms(self.patterns, *self.shape)

    def run(self, members: Ensemble):
        """Merged output amplitudes (re, im) of ``members``, which of them
        stay above ``TOL``, and weight * abs(amp) ** 2 of each, 0.0 if
        dropped; the members must have the configurations planned for."""
        amplitudes = np.array([amp for _, state in members
                               for amp in state.amplitudes.values()],
                              dtype=complex)
        a = amplitudes[self.term]
        # amp * a, rounded as numpy rounds a scalar complex product
        term_re = a.real * self.out_re - a.imag * self.out_im
        term_im = a.real * self.out_im + a.imag * self.out_re
        re = np.bincount(self.group, term_re[self.perm])
        im = np.bincount(self.group, term_im[self.perm])
        # abs(amp) and its square, rounded as Python rounds them
        moduli = np.hypot(re, im)
        # amplitudes below TOL are interference zeros
        kept = moduli > TOL
        squares = np.where(kept, np.float_power(moduli, 2.0), 0.0)
        norm_sq = np.bincount(self.owner, squares, len(members))
        if np.abs(norm_sq - 1.0).max() > SUM_TOL:
            raise ValueError("evolved states must be normalized, got "
                             f"|psi|^2 = {norm_sq.tolist()!r}")
        weights = np.array([weight for weight, _ in members])
        return re, im, kept, weights[self.owner] * squares


# Expansion outputs of the plans kept on one unitary, at most: about 2 MB.
# A repeated small call reuses its plan; a large call is dominated by its
# arithmetic and need not.
_PLAN_BUDGET = 1 << 14


def _evolve_ensemble(ensemble: Ensemble, u: MultiportUnitary):
    """Send every member through the multiport: its plan, and the result of
    running it.

    The plan is kept on ``u`` for the next call with the same
    configurations, within ``_PLAN_BUDGET``.
    """
    statistics = ensemble[0][1].statistics
    supports = tuple(tuple(state.amplitudes) for _, state in ensemble)
    key = (statistics, supports)
    plan = u._plans.get(key)
    if plan is None:
        for _, state in ensemble:
            if u.n != state.n_arms:
                raise ValueError(f"unitary has {u.n} arms, state has "
                                 f"{state.n_arms}")
        plan = _Plan(supports, statistics, u)
        if plan.size <= _PLAN_BUDGET:
            plans = u._plans
            # the oldest plans give way first
            while plans and (sum(p.size for p in plans.values()) + plan.size
                             > _PLAN_BUDGET):
                del plans[next(iter(plans))]
            plans[key] = plan
    return plan, plan.run(ensemble)


def evolve(state: FockState, u: MultiportUnitary) -> FockState:
    """Send the state through the multiport: a+_{a,s} -> sum_b u[a,b] a+_{b,s}."""
    plan, (re, im, kept, _) = _evolve_ensemble([(1.0, state)], u)
    kept = np.flatnonzero(kept)
    amplitudes = np.empty(kept.size, dtype=complex)
    amplitudes.real = re[kept]
    amplitudes.imag = im[kept]
    configs = _configurations(plan.codes[kept], state.statistics,
                              sum(next(iter(state.amplitudes))), 2 * u.n)
    return FockState(state.statistics, dict(zip(configs, amplitudes)))


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
    # members of different arm counts make ragged rows, which numpy refuses
    configs = np.array([config for _, state in ensemble
                        for config in state.amplitudes])
    amp = np.array([amp for _, state in ensemble
                    for amp in state.amplitudes.values()], dtype=complex)
    weights = np.repeat([weight for weight, _ in ensemble],
                        [len(state.amplitudes) for _, state in ensemble])
    # weight * abs(amp) ** 2, rounded as Python rounds it
    probabilities = weights * np.float_power(np.hypot(amp.real, amp.imag), 2.0)
    n_particles = int(configs.sum(axis=1).max())
    return _Arms(_pattern_codes(configs, n_particles), n_particles,
                 configs.shape[1] // 2).count(np.ones(amp.size, dtype=bool),
                                              probabilities)


def interfere(internal, statistics: Statistics,
              unitary: MultiportUnitary | None = None) -> OutcomeDistribution:
    """Full pipeline: load, evolve through the multiport, count arms.

    ``internal`` is a state vector or DensityMatrix over n qubits; the
    default unitary is the n-arm discrete-Fourier multiport.  The result
    is ``spatial_distribution`` of every member ``evolve``d, computed
    without building the evolved states.
    """
    ensemble = prepare_input(internal, statistics)
    n = ensemble[0][1].n_arms
    u = dft_unitary(n) if unitary is None else unitary
    plan, (_, _, kept, probabilities) = _evolve_ensemble(ensemble, u)
    return plan.arms.count(kept, probabilities)
