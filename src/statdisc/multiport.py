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
loop visits them and ``np.bincount`` adds each configuration's terms one
after the other from 0.0, in list order, or after a stable sort that
groups equal keys.  Complex products are spelled out in real arithmetic,
and moduli and squares are taken with ``np.hypot`` and ``np.float_power``,
because numpy's vectorised complex product, ``abs`` and ``** 2`` round
differently from the scalar operations the loop performed.  Every
amplitude and probability, and the key order of every dict, is therefore
the dict loop's bit for bit; that loop lives on in the test suite as an
oracle.

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
bounds its transient memory.  The last step numbers its outputs among the
n-particle configurations of the 2n modes, C(2n, n) for fermions and
C(3n - 1, n) for bosons, and its chunks go to the memo one slice per
configuration: a 4-byte output number and a 16-byte amplitude per output.

An ensemble's members run in groups under one budget of accumulator
cells and terms (``_Plan``), so a call holds the expansion memo and one
group's arrays, whatever the number of members.  Output numbers key the
merge of a group's terms and the probability of each arm-count pattern
across groups, with no sort.

Two memos live on each ``MultiportUnitary``: one entry per statistics,
the output numbering and the expansions of all 2**n configurations, and,
within a fixed budget, the plan of each small ensemble met so far (how
its outputs merge and in what order), so a repeated small call does only
its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
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

    Output ``i`` is the configuration numbered ``index[i]`` (see
    ``_Expansions``) with amplitude ``amplitudes[i]``.  The arrays are
    read-only slices of the arrays of the expansion step that made them,
    shared with the other configurations of that step's chunk.
    """

    index: np.ndarray
    amplitudes: np.ndarray


class _Expansions(NamedTuple):
    """What the multiport does to each of the 2**n one-per-arm input
    configurations, for one statistics.

    The n-particle configurations of the 2n modes are numbered in
    ascending code (see ``_place_values``): number j has code ``codes[j]``
    and the arm-count pattern numbered ``patterns[j]``, whose arm counts
    are ``labels[patterns[j]]``.  ``leaves[i]`` is the expansion of basis
    index i (see the module docstring), with ``sizes[i]`` outputs.
    """

    codes: np.ndarray
    patterns: np.ndarray
    labels: list[Pattern]
    leaves: list[_Expansion]
    sizes: np.ndarray


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


def _outputs(statistics: Statistics,
             n: int) -> tuple[np.ndarray, np.ndarray, list[Pattern]]:
    """The codes, patterns and labels of ``_Expansions``: C(2n, n)
    configurations for fermions, C(3n - 1, n) for bosons."""
    base, place = _place_values(statistics, n)
    cap = base - 1
    # fill the modes from the highest down; each partial configuration is
    # followed by its occupations of the next mode in ascending order, which
    # keeps the codes ascending, and takes only those the modes below it
    # can complete to n particles
    codes = patterns = held = np.zeros(1, dtype=np.int64)
    for m in range(2 * n - 1, -1, -1):
        low = np.maximum(n - held - cap * m, 0)
        choices = np.minimum(n - held, cap) - low + 1
        parent = np.repeat(np.arange(codes.size), choices)
        occupation = np.arange(parent.size) + np.repeat(
            low - (np.cumsum(choices) - choices), choices)
        codes = codes[parent] + occupation * place[m]
        # arm counts coded as digits, base n + 1, lowest digit arm 0
        patterns = patterns[parent] + occupation * (n + 1) ** (m // 2)
        held = held[parent] + occupation
    numbers, patterns = np.unique(patterns, return_inverse=True)
    digits = numbers[:, None] // (n + 1) ** np.arange(n) % (n + 1)
    return codes, patterns, list(map(tuple, digits.tolist()))


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


def _packed(sizes: list[int], budget: int) -> list[int]:
    """Bounds of consecutive runs of items whose sizes add up to at most
    ``budget``; an item larger than that makes a run of its own."""
    bounds, total = [0], 0
    for i, size in enumerate(sizes):
        if total and total + size > budget:
            bounds.append(i)
            total = 0
        total += size
    bounds.append(len(sizes))
    return bounds


# Creations per chunk of one expansion step, at most about this many: a
# chunk holds whole nodes, so a node with more makes a chunk of its own.
# On a 2-core Xeon, expanding the 2**n one-per-arm configurations of 7
# fermions or 6 bosons took as long with 2**11 to 2**13 and needed 0.9 and
# 1.5 MB beyond the memo at 2**13 (2**14: 10% faster, 1.7 and 2.9 MB).
# One chunk per step took 25-55% longer and needed 64 and 58 MB, and it
# raised the peak RSS of aligned and mixed calls up to those sizes from
# 56 to 111 MB (fermions) and from 64 to 103 MB (bosons).
_CHUNK_TERMS = 1 << 13


def _expansions(statistics: Statistics, u: MultiportUnitary) -> _Expansions:
    """What the multiport does to each of the 2**n one-per-arm input
    configurations (see ``_Expansions``).

    An expansion is independent of the rest of the superposition, so all
    2**n are expanded together, one creation step for all of them at a time
    (see the module docstring), and memoized on ``u`` once per statistics.
    """
    memo = u._expansions
    if statistics in memo:
        return memo[statistics]
    n = u.n
    base, place = _place_values(statistics, n)
    numbered, patterns, labels = _outputs(statistics, n)
    # by the mode m a creation substitutes and the arm it goes to, at
    # m * n + arm when flat: the place value of the mode created into, and
    # the unitary's entry
    by_mode = np.arange(2 * n)
    dest = place.reshape(-1, 2).T[by_mode % 2]
    entry = u.matrix[by_mode // 2].ravel()
    entry_re, entry_im = entry.real.copy(), entry.imag.copy()
    # node-major merge keys: a chunk holds at most _CHUNK_TERMS / n nodes
    # (or one), and codes stay below span <= 9**16 < 2**51, so the keys
    # stay inside int64
    span = base * int(place[-1])
    # |config> = prod(creations, ascending) applied to the vacuum: step t
    # creates the particle of arm n - 1 - t, and node 2p + s of step t is
    # node p of step t - 1 with spin s; the root holds the vacuum
    # each chunk of a level: codes and amplitudes of its terms, node-major,
    # and the number of terms of each of its nodes
    level = [(np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex),
              np.ones(1, dtype=np.int64))]
    for step in range(n):
        sizes = np.concatenate([c[2] for c in level])
        # the chunk of each node, and the level's first term of each chunk
        in_chunk = np.repeat(np.arange(len(level)),
                             [c[2].size for c in level])
        chunk_from = np.cumsum([0] + [c[0].size for c in level])
        children = np.arange(2 ** (step + 1))
        parent = children >> 1
        mode = 2 * (n - 1 - step) + (children & 1)
        held_from = (np.cumsum(sizes) - sizes)[parent]
        held_sizes = sizes[parent]
        bounds = _packed((held_sizes * n).tolist(), _CHUNK_TERMS)
        previous, level = level, []
        for a, b in zip(bounds, bounds[1:]):
            # the chunks that hold these nodes' parents; no later chunk
            # reads the ones before them, so those are let go
            lo, hi = in_chunk[parent[a]], in_chunk[parent[b - 1]] + 1
            previous[:lo] = [None] * lo
            codes, amplitudes = (np.concatenate(f) for f in zip(
                *(c[:2] for c in previous[lo:hi])))
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
            if step < n - 1:
                created = created[first]
            else:
                # a creation never lands in an occupied fermion mode and a
                # boson digit of base n + 1 cannot overflow, so every
                # output holds n particles: number it, looking up each
                # node's outputs in ascending order, as they are sorted
                created = np.searchsorted(
                    numbered, created[perm[firsts]])[order].astype(np.int32)
            level.append((created, amp,
                          np.bincount(owner[first], minlength=b - a)))
    # each leaf is one configuration and takes its slice of the last
    # level's chunk
    leaves = []
    for index, amplitudes, sizes in level:
        for array in (index, amplitudes):
            array.setflags(write=False)
        ends = np.cumsum(sizes).tolist()
        leaves += [_Expansion(index[begin:end], amplitudes[begin:end])
                   for begin, end in zip([0] + ends[:-1], ends)]
    # a leaf's number holds the spin of arm i in bit i, a basis index in bit
    # n - 1 - i: the leaves come in bit-reversed basis-index order
    leaves = [leaves[int(f"{i:0{n}b}"[::-1], 2)] for i in range(2 ** n)]
    memo[statistics] = _Expansions(
        numbered, patterns, labels, leaves,
        np.array([leaf.index.size for leaf in leaves]))
    return memo[statistics]


_NEVER = np.iinfo(np.intp).max


class _Tally:
    """``probs[pattern] += p`` over a stream of outputs, in stream order.

    Patterns are numbers below ``len(labels)``, and ``labels`` lists their
    arm counts.  Dropped outputs carry probability 0.0, which leaves every
    sum as it is; a pattern appears at its first kept output, or not at all.
    """

    def __init__(self, labels: list[Pattern]):
        self.labels = labels
        self.totals = np.zeros(len(labels))
        # the stream position of each pattern's first kept output
        self.first = np.full(len(labels), _NEVER)
        self.seen = 0

    def add(self, patterns: np.ndarray, kept: np.ndarray,
            probabilities: np.ndarray) -> None:
        # np.add.at adds repeated indices one after the other, in order
        np.add.at(self.totals, patterns, probabilities)
        kept = kept.nonzero()[0]
        np.minimum.at(self.first, patterns[kept], kept + self.seen)
        self.seen += patterns.size

    def distribution(self) -> OutcomeDistribution:
        present = (self.first < _NEVER).nonzero()[0]
        order = present[self.first[present].argsort()]
        return OutcomeDistribution(dict(zip(
            [self.labels[i] for i in order.tolist()], self.totals[order])))


class _Plan:
    """How a group of members passes through the multiport.

    Input k of the group, listed member by member as the dict loop visits
    them, is basis index ``index[k]`` of member ``member[k]``, counted from
    0 in the group, and is input ``offset + k`` of the call.  A plan
    depends on the inputs, not on their amplitudes.  It lists the terms,
    every expansion output of every input, in the loop's order; keys a
    term by its member and output number, distinct within the group; and
    numbers the merged outputs, one per key, in the order the loop first
    meets them.  It keeps each term's input and merged output, and each
    merged output's member, output number and pattern.
    """

    def __init__(self, member: np.ndarray, index: np.ndarray, offset: int,
                 expansions: _Expansions):
        leaves = [expansions.leaves[i] for i in index.tolist()]
        lengths = expansions.sizes[index]
        self.size = int(lengths.sum())
        self.term = np.repeat(np.arange(offset, offset + index.size), lengths)
        self.out_re = np.concatenate([e.amplitudes.real for e in leaves])
        self.out_im = np.concatenate([e.amplitudes.imag for e in leaves])
        outputs = expansions.codes.size
        key = np.repeat(member * outputs, lengths)
        key += np.concatenate([e.index for e in leaves])
        # each key's first term, with no sort: one accumulator cell per
        # member and output
        terms = np.arange(self.size)
        cell = np.full((member[-1] + 1) * outputs, self.size)
        np.minimum.at(cell, key, terms)
        merged = key[cell[key] == terms]
        cell[merged] = np.arange(merged.size)
        self.group = cell[key]
        self.owner, self.index = np.divmod(merged, outputs)
        self.patterns = expansions.patterns[self.index]

    def run(self, amplitudes: np.ndarray):
        """Merged output amplitudes (re, im) of the planned inputs, given
        the amplitudes of all inputs of the call, which of them stay above
        ``TOL``, and abs(amp) ** 2 of each, 0.0 if dropped."""
        a = amplitudes[self.term]
        # amp * a, rounded as numpy rounds a scalar complex product, and
        # each merged output's terms added in the loop's order from 0.0
        re = np.bincount(self.group,
                         a.real * self.out_re - a.imag * self.out_im)
        im = np.bincount(self.group,
                         a.real * self.out_im + a.imag * self.out_re)
        # abs(amp) and its square, rounded as Python rounds them
        moduli = np.hypot(re, im)
        # amplitudes below TOL are interference zeros
        kept = moduli > TOL
        squares = np.where(kept, np.float_power(moduli, 2.0), 0.0)
        norm_sq = np.bincount(self.owner, squares)
        if np.abs(norm_sq - 1.0).max() > SUM_TOL:
            raise ValueError("evolved states must be normalized, got "
                             f"|psi|^2 = {norm_sq.tolist()!r}")
        return re, im, kept, squares


# Accumulator cells of one group of members, at most, a term counting as
# eight (see ``_plans``): a member with more makes a group of its own.
# Every call of the benchmark's sweep is one group, so its plan can be
# kept.  On a 2-core Xeon, aligned and mixed calls of 7 fermions or 6
# bosons needed at most 4.4 MB beyond the memo by tracemalloc (2**19:
# 8.0 MB), where one plan over all members had needed 10-22 MB.
_GROUP_BUDGET = 1 << 18

# Expansion outputs of the plans kept on one unitary, at most.  A plan's
# arrays take 35-56 bytes per output by nbytes, so at most about 3.7 MB;
# the plans of every call the benchmark's sweep makes (aligned vs mixed up
# to five particles, both statistics) fit together, 1.6 MB in all, so none
# evicts another.  A repeated small call reuses its plan; a large call is
# dominated by its arithmetic and need not.
_PLAN_BUDGET = 1 << 16


def _plans(member: np.ndarray, index: np.ndarray, statistics: Statistics,
           u: MultiportUnitary):
    """The plans of these inputs through ``u`` (see ``_Plan``), one group
    of members after another, each with its first member.

    Members go into groups in order, within ``_GROUP_BUDGET``.  The plan of
    a call of one group is kept on ``u`` for the next call with the same
    inputs, within ``_PLAN_BUDGET``; a call of more groups builds each
    plan as it comes and lets it go.
    """
    key = (statistics, member.tobytes(), index.tobytes())
    plan = u._plans.get(key)
    if plan is not None:
        yield 0, plan
        return
    expansions = _expansions(statistics, u)
    # each member's accumulator cells and terms; a term's arrays take
    # about eight times a cell's eight bytes, so it counts as eight cells
    cost = (8 * np.bincount(member, expansions.sizes[index])
            + expansions.codes.size)
    bounds = _packed(cost.astype(np.int64).tolist(), _GROUP_BUDGET)
    starts = np.searchsorted(member, bounds).tolist()
    for a, lo, hi in zip(bounds, starts, starts[1:]):
        plan = _Plan(member[lo:hi] - a, index[lo:hi], lo, expansions)
        if len(bounds) == 2 and plan.size <= _PLAN_BUDGET:
            plans = u._plans
            # the oldest plans give way first
            while plans and (sum(p.size for p in plans.values()) + plan.size
                             > _PLAN_BUDGET):
                del plans[next(iter(plans))]
            plans[key] = plan
        yield a, plan


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
    (_, plan), = _plans(np.zeros_like(index), index, state.statistics, u)
    re, im, kept, _ = plan.run(amplitudes)
    kept = np.flatnonzero(kept)
    amplitudes = np.empty(kept.size, dtype=complex)
    amplitudes.real = re[kept]
    amplitudes.imag = im[kept]
    codes = _expansions(state.statistics, u).codes[plan.index[kept]]
    configs = _configurations(codes, state.statistics, u.n)
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
    labels, patterns = np.unique(configs[:, 0::2] + configs[:, 1::2],
                                 axis=0, return_inverse=True)
    tally = _Tally(list(map(tuple, labels.tolist())))
    tally.add(patterns.ravel(), np.ones(amp.size, dtype=bool), probabilities)
    return tally.distribution()


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
    amplitudes = vectors[member, index]
    tally = _Tally(_expansions(statistics, u).labels)
    for first, plan in _plans(member, index, statistics, u):
        _, _, kept, squares = plan.run(amplitudes)
        tally.add(plan.patterns, kept, weights[first:][plan.owner] * squares)
    return tally.distribution()
