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

The kernel takes the one input the package makes: n particles on the n
arms, one per arm.  Bit i of a basis index of the n-qubit internal state,
most significant first, is the internal state s of the particle in arm i,
in mode 2*i + s; these creations stand in ascending mode order, so an
internal amplitude is the Fock amplitude, without sign, for either
statistics, and ``interfere`` hands eigenvectors to the kernel as basis
indices and amplitudes, building no ``FockState``.  The 2**n
configurations, one per spin string, are expanded together, one creation
step for all of them at a time.  A configuration's creations act on the
vacuum in descending mode order, so step t creates the particle of arm
n - 1 - t, and the configurations that agree on the spins created so far
share a node of a binary prefix tree: step t has 2**(t+1) nodes, node
2p + s being node p of the step before with spin s, and each node's terms
are computed once.  Each term carries its node, merge keys are node-major,
and the terms of each node are listed, grouped and added as that
configuration's own loop would, so the sharing changes no bit.  A step
runs in chunks of whole nodes and about ``_CHUNK_TERMS`` creations, which
bounds its transient memory, and the last step's chunks go to the memo
one slice per configuration.

Two memos live on each ``MultiportUnitary``: one entry per statistics,
the expansions of all 2**n configurations, and, within a fixed budget, the
plan of each small ensemble met so far (how its outputs merge and in what
order), so a repeated small call does only its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .core import (SUM_TOL, TOL, DensityMatrix, as_complex_matrix,
                   check_capacity, check_register)

Occupation = tuple[int, ...]
Pattern = tuple[int, ...]


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


@dataclass(frozen=True, eq=False)
class MultiportUnitary:
    """Balanced n-arm unitary: every entry has modulus 1/sqrt(n).

    It also carries the memos of what it does, for each statistics, to the
    2**n configurations of one particle per arm, and to each small ensemble
    (see ``_expansions`` and ``_Plan``).
    """

    matrix: np.ndarray
    n: int = field(init=False)  # the side of the square matrix

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix).copy()
        object.__setattr__(self, "n", m.shape[0])
        if m.shape != (self.n, self.n):
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not self.n:
            raise ValueError("a multiport needs at least one arm")
        if np.max(np.abs(m.conj().T @ m - np.eye(self.n))) > TOL:
            raise ValueError("matrix must be unitary")
        if np.max(np.abs(np.abs(m) - 1.0 / math.sqrt(self.n))) > TOL:
            raise ValueError("matrix must be balanced: all entry moduli 1/sqrt(n)")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        # the memos live exactly as long as the unitary they describe
        object.__setattr__(self, "_expansions", {})
        object.__setattr__(self, "_plans", {})


# check_register bounds this cache to MAX_QUBITS entries
@lru_cache(maxsize=None)
def dft_unitary(n: int) -> MultiportUnitary:
    """The discrete-Fourier multiport: u[a, b] = exp(2i pi a b / n) / sqrt(n)."""
    check_register(n)
    a = np.arange(n)
    m = np.exp(2j * math.pi * np.outer(a, a) / n) / math.sqrt(n)
    return MultiportUnitary(m)


@dataclass(frozen=True, eq=False)
class FockState:
    """Superposition of occupation configurations at fixed particle number.

    ``amplitudes`` maps configurations (length ``2 * n_arms``, mode order as
    in the module docstring) to complex amplitudes.  Treated as immutable.
    ``statistics`` may be given as its value; the state stores the member.
    """

    statistics: Statistics
    amplitudes: dict[Occupation, complex]
    n_arms: int = field(init=False)  # half the first configuration's length

    def __post_init__(self) -> None:
        object.__setattr__(self, "statistics", Statistics(self.statistics))
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


def prepare_input(internal) -> list[tuple[float, np.ndarray]]:
    """Load an internal state, one particle per arm: weighted unit vectors.

    ``internal`` is a one-dimensional state vector over n qubits or a
    ``DensityMatrix``.  A state vector gives a single member of weight one.
    A density matrix is eigendecomposed and each eigenvector above the
    weight cutoff becomes a member; any orthonormal eigenbasis of a
    degenerate spectrum yields the same downstream statistics.  Each
    member's vector, divided by its norm, lists the amplitudes of the 2**n
    configurations by basis index (see the module docstring).
    """
    mixed = isinstance(internal, DensityMatrix)
    if mixed:
        n = internal.n_qubits
    else:
        v = np.asarray(internal, dtype=complex)
        if v.ndim != 1:
            raise ValueError(f"a state vector is one-dimensional, not of "
                             f"shape {v.shape}; pass a DensityMatrix instead")
        n = v.size.bit_length() - 1
        if 2 ** n != v.size:
            raise ValueError(f"internal register dimension {v.size} is not a "
                             "power of two")
    check_register(n)
    if mixed:
        vals, vecs = np.linalg.eigh(internal.matrix)
        # unit trace over at most 2**8 eigenvalues leaves one above TOL
        members = [(float(w), vec) for w, vec in zip(vals, vecs.T) if w > TOL]
    elif not np.isfinite(v).all():
        raise ValueError("state vector entries must be finite")
    else:
        members = [(1.0, v)]
    ensemble = []
    for weight, vec in members:
        norm = np.linalg.norm(vec)
        if norm < TOL:
            raise ValueError("internal state vector must be nonzero")
        ensemble.append((weight, vec / norm))
    return ensemble


class _Expansion(NamedTuple):
    """What the multiport does to one unit-amplitude input configuration
    of n particles, one per arm.

    Output ``i`` is configuration ``codes[i]`` (coded as ``_place_values``
    says) with amplitude ``amplitudes[i]``; ``patterns[i]`` codes its arm
    counts as the digits, base n + 1, of a number whose lowest digit is
    arm 0.  The arrays are read-only slices of the arrays of the
    expansion step that made them, shared with the other configurations
    of that step's chunk.
    """

    codes: np.ndarray
    amplitudes: np.ndarray
    patterns: np.ndarray


def _place_values(statistics: Statistics, n: int) -> tuple[int, np.ndarray]:
    """Base and per-mode place values of the configuration code of n
    particles on n arms.

    A configuration is coded as sum_m n_m * base**m over its 2n modes, with
    base 2 for fermions and n + 1 for bosons, so no occupation of a valid
    configuration overflows its digit.  The capacity rule caps n at eight,
    so codes stay below 9**16 < 2**51.
    """
    base = 2 if statistics is Statistics.FERMION else n + 1
    return base, base ** np.arange(2 * n, dtype=np.int64)


def _configurations(codes: np.ndarray, statistics: Statistics,
                    n: int) -> list[Occupation]:
    """The occupation tuples that ``codes`` stand for."""
    base, place = _place_values(statistics, n)
    return list(map(tuple, (codes[:, None] // place % base).tolist()))


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort equal keys together, each run of them in input order.

    Returns the stable sorting permutation, the run of every sorted key
    and the sorted position where each run starts.  ``np.bincount(group,
    terms[perm])`` then adds each key's terms in input order, one after
    the other from 0.0, as the dict loop ``out[key] += term`` does, and
    ``argsort(perm[starts])`` lists the runs in that dict's key order.
    """
    size = keys.size
    # numpy's stable argsort is a merge sort and its plain sort is
    # vectorised: where it fits int64, sort each key with its input
    # position below it, which puts equal keys in input order
    if size and keys.max() < (2 ** 63 - size) // size:
        ordered, perm = np.divmod(np.sort(keys * size + np.arange(size)), size)
    else:
        perm = np.argsort(keys, kind="stable")
        ordered = keys[perm]
    new = np.empty(size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return perm, np.cumsum(new) - 1, np.flatnonzero(new)


# Creations per chunk of one expansion step, at most about this many: a
# chunk holds whole nodes, so a node with more makes a chunk of its own.
# On a 2-core Xeon, expanding the 2**n one-per-arm configurations of 7
# fermions or 6 bosons took as long with 2**11 to 2**13 and needed 0.9 and
# 1.5 MB beyond the memo at 2**13 (2**14: 10% faster, 1.7 and 2.9 MB).
# One chunk per step took 25-55% longer and needed 64 and 58 MB, and it
# raised the peak RSS of aligned and mixed calls up to those sizes from
# 56 to 111 MB (fermions) and from 64 to 103 MB (bosons).
_CHUNK_TERMS = 1 << 13


def _expansions(statistics: Statistics,
                u: MultiportUnitary) -> list[_Expansion]:
    """What the multiport does to each of the 2**n one-per-arm input
    configurations, listed by basis index (see the module docstring).

    An expansion is independent of the rest of the superposition, so all
    2**n are expanded together, one creation step for all of them at a time
    (see the module docstring), and memoized on ``u`` once per statistics.
    """
    memo = u._expansions
    if statistics in memo:
        return memo[statistics]
    n = u.n
    base, place = _place_values(statistics, n)
    # by the mode m a creation substitutes and the arm it goes to, at
    # m * n + arm when flat: the place value of the mode created into, and
    # the unitary's entry
    by_mode = np.arange(2 * n)
    dest = place.reshape(-1, 2).T[by_mode % 2]
    entry = u.matrix[by_mode // 2].ravel()
    entry_re, entry_im = entry.real.copy(), entry.imag.copy()
    arm_digit = (n + 1) ** np.arange(n, dtype=np.int64)
    # node-major merge keys: a chunk holds at most _CHUNK_TERMS / n nodes
    # (or one), and codes stay below span <= 9**16 < 2**51, so the keys
    # stay inside int64
    span = base * int(place[-1])
    # |config> = prod(creations, ascending) applied to the vacuum: step t
    # creates the particle of arm n - 1 - t, and node 2p + s of step t is
    # node p of step t - 1 with spin s; the root holds the vacuum
    vacuum = np.zeros(1, dtype=np.int64)
    # each chunk of a level: codes, amplitudes and arm patterns of its
    # terms, node-major, and the number of terms of each of its nodes
    level = [(vacuum, np.ones(1, dtype=complex), vacuum,
              np.ones(1, dtype=np.int64))]
    for step in range(n):
        sizes = np.concatenate([c[3] for c in level])
        # the chunk of each node, and the level's first term of each chunk
        in_chunk = np.repeat(np.arange(len(level)),
                             [c[3].size for c in level])
        chunk_from = np.cumsum([0] + [c[0].size for c in level])
        children = np.arange(2 ** (step + 1))
        parent = children >> 1
        mode = 2 * (n - 1 - step) + (children & 1)
        held_from = (np.cumsum(sizes) - sizes)[parent]
        held_sizes = sizes[parent]
        bounds, total = [0], 0
        for i, size in enumerate((held_sizes * n).tolist()):
            if total and total + size > _CHUNK_TERMS:
                bounds.append(i)
                total = 0
            total += size
        bounds.append(children.size)
        previous, level = level, []
        for a, b in zip(bounds, bounds[1:]):
            # the chunks that hold these nodes' parents; no later chunk
            # reads the ones before them, so those are let go
            lo, hi = in_chunk[parent[a]], in_chunk[parent[b - 1]] + 1
            previous[:lo] = [None] * lo
            codes, amplitudes, patterns = (
                np.concatenate(f) for f in zip(*(c[:3] for c in
                                                 previous[lo:hi])))
            # each node's parent's terms, each created into mode
            # 2 * arm + spin for every arm, term-major, arm-minor, as
            # the node's own loop visits them
            n_held = held_sizes[a:b]
            owner = np.repeat(np.arange(b - a), n_held)
            src = np.arange(owner.size) + np.repeat(
                held_from[a:b] - chunk_from[lo]
                - (np.cumsum(n_held) - n_held), n_held)
            m = mode[a:b][owner]
            if statistics is Statistics.FERMION:
                # only free modes are created into
                term, arm = np.nonzero((codes[src, None] & dest[m]) == 0)
            else:
                term, arm = np.divmod(np.arange(owner.size * n), n)
            held_at = src[term]
            k = m[term] * n + arm
            held, d = codes[held_at], dest.ravel()[k]
            amp, u_re, u_im = amplitudes[held_at], entry_re[k], entry_im[k]
            # amp * entry, rounded as numpy rounds a scalar complex
            # product
            term_re = amp.real * u_re - amp.imag * u_im
            term_im = amp.real * u_im + amp.imag * u_re
            if statistics is Statistics.FERMION:
                # the sign (-1) ** (number of occupied modes below)
                factor = 1.0 - 2.0 * (np.bitwise_count(held & (d - 1)) & 1)
            else:
                factor = np.sqrt(held // d % base + 1.0)
            term_re *= factor
            term_im *= factor
            created = held + d
            owner = owner[term]
            perm, group, firsts = _groups(owner * span + created)
            order = np.argsort(perm[firsts])
            first = perm[firsts[order]]
            amp = np.empty(first.size, dtype=complex)
            amp.real = np.bincount(group, term_re[perm])[order]
            amp.imag = np.bincount(group, term_im[perm])[order]
            level.append((
                created[first], amp,
                patterns[held_at[first]] + arm_digit[arm[first]],
                np.bincount(owner[first], minlength=b - a)))
    # a creation never lands in an occupied fermion mode and a boson digit
    # of base n + 1 cannot overflow, so every output holds n particles; each
    # leaf is one configuration and takes its slice of the last level's chunk
    leaves = []
    for codes, amplitudes, patterns, sizes in level:
        for array in (codes, amplitudes, patterns):
            array.setflags(write=False)
        ends = np.cumsum(sizes).tolist()
        leaves += [_Expansion(codes[begin:end], amplitudes[begin:end],
                              patterns[begin:end])
                   for begin, end in zip([0] + ends[:-1], ends)]
    # a leaf's number holds the spin of arm i in bit i, a basis index in bit
    # n - 1 - i: the leaves come in bit-reversed basis-index order
    memo[statistics] = [leaves[int(f"{i:0{n}b}"[::-1], 2)]
                        for i in range(2 ** n)]
    return memo[statistics]


class _Arms:
    """How a list of output configurations falls into arm-count patterns.

    ``patterns`` codes each output's pattern as ``_Expansion`` does, in
    digits of the given base, one more than the particle number.
    """

    def __init__(self, patterns: np.ndarray, base: int, n_arms: int):
        self.perm, self.group, self.starts = _groups(patterns)
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

    Input k, listed member by member as the dict loop visits them, is
    basis index ``index[k]`` of member ``member[k]``.  A plan depends on
    the inputs, not on their amplitudes: it lists every expansion output
    in the loop's order, the merge of equal output configurations within a
    member, and the merged outputs in the order the loop first meets them.
    """

    def __init__(self, member: np.ndarray, index: np.ndarray,
                 statistics: Statistics, u: MultiportUnitary):
        n = u.n
        expansions = _expansions(statistics, u)
        terms = [expansions[i] for i in index.tolist()]
        lengths = [e.codes.size for e in terms]
        self.size = sum(lengths)
        self.term = np.repeat(np.arange(len(terms)), lengths)
        out = np.concatenate([e.amplitudes for e in terms])
        self.out_re = out.real.copy()
        self.out_im = out.imag.copy()
        owner = member[self.term]
        codes = np.concatenate([e.codes for e in terms])
        base, place = _place_values(statistics, n)
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
        self.n = n

    @cached_property
    def arms(self) -> _Arms:
        """Built at the first count, after the first run: built with the
        plan, its arrays would add to that run's peak memory."""
        return _Arms(self.patterns, self.n + 1, self.n)

    def run(self, amplitudes: np.ndarray, weights: np.ndarray):
        """Merged output amplitudes (re, im) of the planned inputs with
        these amplitudes, which of them stay above ``TOL``, and
        weights[member] * abs(amp) ** 2 of each, 0.0 if dropped."""
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
        norm_sq = np.bincount(self.owner, squares, weights.size)
        if np.abs(norm_sq - 1.0).max() > SUM_TOL:
            raise ValueError("evolved states must be normalized, got "
                             f"|psi|^2 = {norm_sq.tolist()!r}")
        return re, im, kept, weights[self.owner] * squares


# Expansion outputs of the plans kept on one unitary, at most.  A plan's
# arrays take 45-82 bytes per output by nbytes, so at most about 5 MB; the
# plans of every call the benchmark's sweep makes (aligned vs mixed up to
# five particles, both statistics) fit together, 2.3 MB in all, so none
# evicts another.  A repeated small call reuses its plan; a large call is
# dominated by its arithmetic and need not.
_PLAN_BUDGET = 1 << 16


def _plan(member: np.ndarray, index: np.ndarray, statistics: Statistics,
          u: MultiportUnitary) -> _Plan:
    """The plan of these inputs through ``u`` (see ``_Plan``), kept on
    ``u`` for the next call with the same inputs, within ``_PLAN_BUDGET``.
    """
    key = (statistics, member.tobytes(), index.tobytes())
    plan = u._plans.get(key)
    if plan is None:
        plan = _Plan(member, index, statistics, u)
        if plan.size <= _PLAN_BUDGET:
            plans = u._plans
            # the oldest plans give way first
            while plans and (sum(p.size for p in plans.values()) + plan.size
                             > _PLAN_BUDGET):
                del plans[next(iter(plans))]
            plans[key] = plan
    return plan


def _arms_error(u: MultiportUnitary) -> ValueError:
    """The refusal of an input that is not one particle in each arm of u."""
    return ValueError("the multiport takes one particle in each of its "
                      f"{u.n} arms")


def evolve(state: FockState, u: MultiportUnitary) -> FockState:
    """Send the state through the multiport: a+_{a,s} -> sum_b u[a,b] a+_{b,s}."""
    configs = np.array(list(state.amplitudes))
    if (state.n_arms != u.n
            or (configs[:, 0::2] + configs[:, 1::2] != 1).any()):
        raise _arms_error(u)
    # the spins, arm 0 first, are the bits of the basis index
    index = configs[:, 1::2] @ (1 << np.arange(u.n - 1, -1, -1))
    amplitudes = np.array(list(state.amplitudes.values()), dtype=complex)
    plan = _plan(np.zeros_like(index), index, state.statistics, u)
    re, im, kept, _ = plan.run(amplitudes, np.ones(1))
    kept = np.flatnonzero(kept)
    amplitudes = np.empty(kept.size, dtype=complex)
    amplitudes.real = re[kept]
    amplitudes.imag = im[kept]
    configs = _configurations(plan.codes[kept], state.statistics, u.n)
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
    # arm counts, coded as _Expansion codes them
    counts = configs[:, 0::2] + configs[:, 1::2]
    base = int(counts.sum(axis=1).max()) + 1
    patterns = counts @ base ** np.arange(counts.shape[1], dtype=np.int64)
    return _Arms(patterns, base, counts.shape[1]).count(
        np.ones(amp.size, dtype=bool), probabilities)


def interfere(internal, statistics: Statistics | str,
              unitary: MultiportUnitary | None = None) -> OutcomeDistribution:
    """Full pipeline: load, evolve through the multiport, count arms.

    ``internal`` is as ``prepare_input`` takes it, a one-dimensional state
    vector or a ``DensityMatrix`` over n qubits, and ``statistics`` is a
    ``Statistics`` member or its value.  The default unitary is the n-arm
    discrete-Fourier multiport.  The result is ``spatial_distribution`` of
    every member ``evolve``d, computed from the members' vectors without
    building a ``FockState``.
    """
    ensemble = prepare_input(internal)
    statistics = Statistics(statistics)
    vectors = np.array([vec for _, vec in ensemble])
    n = vectors.shape[1].bit_length() - 1
    u = dft_unitary(n) if unitary is None else unitary
    if n != u.n:
        raise _arms_error(u)
    # the entries above TOL, member by member in ascending basis index:
    # np.hypot is abs(complex), so these are the entries and the order of
    # the Fock states that the dict loop evolves
    member, index = np.nonzero(np.hypot(vectors.real, vectors.imag) > TOL)
    weights = np.array([weight for weight, _ in ensemble])
    plan = _plan(member, index, statistics, u)
    _, _, kept, probabilities = plan.run(vectors[member, index], weights)
    return plan.arms.count(kept, probabilities)
