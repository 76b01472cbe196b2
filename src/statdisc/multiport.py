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
No permanent or determinant formulas anywhere.  The independent
cross-checks live in ``tests/oracles.py``: explicit (anti)symmetrization of
labeled particles, and a determinant/permanent factorisation of each spin
string's amplitude.

The kernel does this on numpy arrays of numbered configurations, and
performs the floating-point operations of the plain dict loop
``out[config] += term`` in that loop's order: the terms are listed as the
loop visits them and ``np.add.at`` adds each configuration's terms one
after the other from 0.0, in list order, into zeroed cells.  Every
complex product is spelled out in real arithmetic (``_product``), and
moduli and squares are taken with ``np.hypot`` and ``np.float_power``,
because numpy's vectorised complex product, ``abs`` and ``** 2`` round
differently from the scalar operations the loop performed.  Every
amplitude and probability is therefore the dict loop's bit for bit, and
so is the order of an evolved ``FockState``'s configurations; that loop
lives on in the test suite as an oracle.  An arm-count distribution lists
its patterns in ascending order, the order in which every reader of it
walks them.

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
n - 1 - t, and step t has 2**(t+1) nodes, one per string of the spins
created so far: node p + s * 2**t is node p of the step before with spin
s, so the last step's nodes are the basis indices, in order.  The
multiport acts on the arms alone, so swapping every particle's spin
commutes with it: node 2**(t+1) - 1 - p, the complement string, is node
p with the spins of every output swapped, times a fermion sign (see
``_mirror_sign``).  A step therefore computes and keeps only its spin-0
nodes, one per node of the step before, and a spin-1 node is read, by
the next step or by the merge, from its complement through the swap
(``_gathered``, the one place the mirror is applied).  A computed node's
terms are listed, grouped and added as that configuration's own loop
would, and a mirrored node's loop would meet the swapped keys in the
same order and add the same terms times the sign, so neither the sharing
nor the mirror changes a bit.  The k-particle configurations of the 2n
modes are numbered in ascending code at each level k, and a term holds
the number of its configuration; level n, C(2n, n) configurations for
fermions and C(3n - 1, n) for bosons, numbers the outputs.  A step reads
its creations from a table with one row per configuration number, which
lists arm by arm the number of the configuration a spin-0 creation makes
and its factor, and finds each key's first term on one accumulator cell
per node and configuration, with no sort.  A node's outputs are the
configurations of its particles with as many in spin 1 as it has set
bits, a closed-form count, so each step's arrays are allocated whole and
filled in chunks of whole nodes and about ``_CHUNK_TERMS`` creations,
which bounds the transient memory, and a step holds only its parent
level's spin-0 half.  The last step's arrays for its spin-0 half are the
memo: a 4-byte output number and a 16-byte amplitude per output, one
slice per basis index below 2**(n - 1), with the level's swap map and,
for fermions, its sign.

An ensemble's members run in groups under one budget of accumulator
cells and terms (``_GROUP_BUDGET``), and a group's terms are merged in
chunks of whole inputs under the same budget, which makes a group under
it one chunk, so a call holds the expansion memo, one group's cells and
one chunk's arrays, whatever the number of members and the size of the
largest.  Output numbers key the merge of a group's terms, with no sort,
and pattern numbers the total of each arm-count pattern across groups, in
one array.  A group whose members hold one input each, as the maximally
mixed state's basis vectors do, has distinct keys: its terms are its
merged outputs, taken as they stand, with no accumulator cells.

Two memos keep what the package asks again and again.  Each
``MultiportUnitary`` keeps, per statistics, the output numbering and the
expansions of the spin-0 half of the 2**n configurations, from which the
merge gathers all of them.  ``interfere`` keeps its answer, per
statistics, on each ``DensityMatrix`` it sends through the default
multiport, for as long as that state lives, so asking the shared
hypothesis states again costs a lookup.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple
from weakref import WeakKeyDictionary

import numpy as np

from .core import (SUM_TOL, TOL, DensityMatrix, as_complex_matrix,
                   check_register)

Occupation = tuple[int, ...]
Pattern = tuple[int, ...]


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


@dataclass(frozen=True, eq=False)
class MultiportUnitary:
    """Balanced n-arm unitary: every entry has modulus 1/sqrt(n).

    Its n arms take n particles, so n meets the register rule, checked
    before any product.  It also carries the memo of what it does, for
    each statistics, to the 2**n configurations of one particle per arm
    (see ``_expansions``).
    """

    matrix: np.ndarray
    n: int = field(init=False)  # the side of the square matrix

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix)
        object.__setattr__(self, "n", m.shape[0])
        if m.shape != (self.n, self.n):
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        check_register(self.n)
        m = m.copy()
        if np.max(np.abs(m.conj().T @ m - np.eye(self.n))) > TOL:
            raise ValueError("matrix must be unitary")
        if np.max(np.abs(np.abs(m) - 1.0 / math.sqrt(self.n))) > TOL:
            raise ValueError("matrix must be balanced: all entry moduli 1/sqrt(n)")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        # the memo lives exactly as long as the unitary it describes
        object.__setattr__(self, "_expansions", {})


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
        # written so that a NaN fails it
        if not abs(norm_sq - 1.0) <= SUM_TOL:
            raise ValueError(f"state must be normalized, got |psi|^2 = {norm_sq!r}")


Ensemble = list[tuple[float, FockState]]


def prepare_input(internal) -> list[tuple[float, np.ndarray]]:
    """Load an internal state, one particle per arm: weighted unit vectors.

    ``internal`` is a one-dimensional state vector over n qubits or a
    ``DensityMatrix``.  A state vector gives a single member of weight one,
    its vector divided by its norm.  A density matrix is eigendecomposed on
    every load: its smallest eigenvalues are dropped while together they
    hold at most ``TOL``, and each eigenvalue left, in ascending order, is
    a member's weight, and its eigenvector divided by its norm the member's
    vector.  An eigenvalue above ``TOL`` is always kept, and a kept one
    exceeds TOL / 2**n.  Any orthonormal eigenbasis of a degenerate
    spectrum yields the same downstream statistics; this is the one
    ``np.linalg.eigh`` returns.
    Each member's vector lists the amplitudes of the 2**n configurations by
    basis index (see the module docstring), and every load is the caller's
    own.  ``interfere`` loads a density matrix through the default
    multiport once per statistics, and after that answers from its memo.
    """
    if isinstance(internal, DensityMatrix):
        vals, vecs = np.linalg.eigh(internal.matrix)
        # a dropped eigenvalue is negligible, and so is the mass of all of
        # them; the first kept one is the largest of a sum above TOL
        kept = (vals > TOL) | (np.cumsum(vals) > TOL)
        return [(float(weight), vec / np.linalg.norm(vec))
                for weight, vec, keep in zip(vals, vecs.T, kept) if keep]
    v = np.asarray(internal, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"a state vector is one-dimensional, not of "
                         f"shape {v.shape}; pass a DensityMatrix instead")
    n = v.size.bit_length() - 1
    if 2 ** n != v.size:
        raise ValueError(f"internal register dimension {v.size} is not a "
                         "power of two")
    check_register(n)
    if not np.isfinite(v).all():
        raise ValueError("state vector entries must be finite")
    norm = np.linalg.norm(v)
    if norm < TOL:
        raise ValueError("internal state vector must be nonzero")
    return [(1.0, v / norm)]


class _Expansions(NamedTuple):
    """What the multiport does to each of the 2**n one-per-arm input
    configurations, for one statistics.

    The n-particle configurations of the 2n modes are numbered in
    ascending code (see ``_place_values``): number j has code ``codes[j]``
    and the arm-count pattern numbered ``patterns[j]``, whose arm counts
    are ``labels[patterns[j]]``; the labels ascend.  Basis index i (see the
    module docstring) expands to ``sizes[i]`` outputs.  Only the spin-0
    half is kept, the indices i below 2**(n - 1): the expansion of such an
    i is the slice ``offsets[i]:offsets[i + 1]`` of the read-only arrays
    ``index`` and ``amplitudes``, output number ``index[o]`` with amplitude
    ``amplitudes[o]``, and the slices tile both arrays in basis-index
    order.  Index 2**n - 1 - i is the spin swap of i: output number ``j``
    becomes ``swap[j]`` and, for fermions, its amplitude is multiplied by
    ``sign[j]``, which is None for bosons (see ``_gathered``).

    Each level of ``_expansions``, the nodes of one creation step, is kept
    the same way, its nodes for basis indices, with ``codes``, ``patterns``
    and ``labels`` None; the memo is the last level with them attached.
    """

    codes: np.ndarray
    patterns: np.ndarray
    labels: list[Pattern]
    index: np.ndarray
    amplitudes: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    swap: np.ndarray
    sign: np.ndarray | None


def _place_values(statistics: Statistics, n: int) -> tuple[int, np.ndarray]:
    """Base and per-mode place values of the configuration code of n
    particles on n arms.

    A configuration is coded as sum_m n_m * base**m over its 2n modes, with
    base 2 for fermions and n + 1 for bosons, so no occupation of a valid
    configuration overflows its digit.  ``MultiportUnitary`` caps its arms,
    and so n, at eight, so codes stay below 9**16 < 2**51.
    """
    base = 2 if statistics is Statistics.FERMION else n + 1
    return base, base ** np.arange(2 * n, dtype=np.int64)


def _configurations(codes: np.ndarray, statistics: Statistics,
                    n: int) -> list[Occupation]:
    """The occupation tuples that ``codes`` stand for."""
    base, place = _place_values(statistics, n)
    return list(map(tuple, (codes[:, None] // place % base).tolist()))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``start, ..., start + length - 1`` of each start and
    length, one after the other."""
    return np.arange(lengths.sum()) + np.repeat(
        starts - (np.cumsum(lengths) - lengths), lengths)


def _product(a: np.ndarray, counts: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each a[k] repeated counts[k] times, times the entries of b in turn,
    rounded as numpy rounds a scalar complex product: spelled out in real
    arithmetic, (a.real * b.real - a.imag * b.imag) and
    (a.real * b.imag + a.imag * b.real), from the real and then the
    imaginary parts of a repeated, one part at a time."""
    product = np.empty(b.size, dtype=complex)
    part = np.repeat(a.real, counts)
    np.multiply(part, b.real, out=product.real)
    np.multiply(part, b.imag, out=product.imag)
    part = np.repeat(a.imag, counts)
    product.real -= part * b.imag
    product.imag += part * b.real
    return product


def _first_seen(key: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """The values of ``key`` that ``cell`` has not met, in the order of
    their first appearance in ``key``, with no sort; they are marked met.

    ``cell`` holds one int32 per value: -1 for a value met before, so that
    a key can be walked in consecutive parts, and ``np.iinfo(np.int32).max``
    for a value not met yet.  A key is one chunk of an expansion
    step or of ``_merge``, whole nodes or inputs of about ``_CHUNK_TERMS``
    or ``_GROUP_BUDGET // 8`` terms; ``MultiportUnitary`` caps its arms,
    and so n, at eight, where one node or input has at most a few hundred
    thousand terms, so positions are far below 2**31.
    """
    terms = np.arange(key.size, dtype=np.int32)
    np.minimum.at(cell, key, terms)
    first = key[cell[key] == terms]
    cell[first] = -1
    return first


def _levels(statistics: Statistics, n: int
            ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray,
                       list[Pattern]]:
    """The codes of the k-particle configurations of the 2n modes for each
    k from 0 to n, in ascending code; the spin swap on each level, the
    number (int32) of each configuration with the occupations of modes
    2 * arm and 2 * arm + 1 exchanged on every arm; and the patterns and
    labels of ``_Expansions``, whose codes are those of level n: C(2n, n)
    configurations for fermions, C(3n - 1, n) for bosons."""
    base, place = _place_values(statistics, n)
    cap = base - 1
    # arm counts coded as digits, base n + 1, arm 0 the most significant,
    # so the numbers ascend with the label tuples
    arm_place = (n + 1) ** np.arange(n - 1, -1, -1)
    # fill the modes from the highest down; each partial configuration is
    # followed by its occupations of the next mode in ascending order, up
    # to n particles in all, which keeps the codes ascending
    codes = swapped = patterns = held = np.zeros(1, dtype=np.int64)
    for m in range(2 * n - 1, -1, -1):
        choices = np.minimum(n - held, cap) + 1
        parent = np.repeat(np.arange(codes.size), choices)
        occupation = _ranges(np.zeros_like(choices), choices)
        codes = codes[parent] + occupation * place[m]
        # the same occupation in the other mode of the arm
        swapped = swapped[parent] + occupation * place[m ^ 1]
        patterns = patterns[parent] + occupation * arm_place[m // 2]
        held = held[parent] + occupation
    at_level = [held == k for k in range(n + 1)]
    levels = [codes[mask] for mask in at_level]
    swaps = [np.searchsorted(level, swapped[mask]).astype(np.int32)
             for level, mask in zip(levels, at_level)]
    numbers, patterns = np.unique(patterns[at_level[n]], return_inverse=True)
    digits = numbers[:, None] // arm_place % (n + 1)
    return levels, swaps, patterns, list(map(tuple, digits.tolist()))


def _creations(statistics: Statistics, n: int, codes: np.ndarray,
               following: np.ndarray) -> tuple[np.ndarray, ...]:
    """The creations into spin 0 on the configurations of one level of
    ``_levels``, whose codes are ``codes``, as a table with a row j for
    configuration number j.

    Row j holds one entry for each arm, in ascending order, whose spin-0
    mode 2 * arm can take one more particle, for either statistics the
    arms whose digit in that mode is below the cap ``base - 1`` of
    ``_levels``: the arm, the number of the configuration the creation
    makes, which is its position in ``following``, the codes of the next
    level, and the creation's factor.  Returns where each row starts, and
    where the last one ends, then the arms (int8), numbers (int32) and
    factors of the entries.
    """
    base, place = _place_values(statistics, n)
    # the place value of each arm's spin-0 mode
    dest = place[0::2]
    # a fermion mode takes one while it is free, and a boson one below
    # level n always
    row, arm = np.nonzero(codes[:, None] // dest % base < base - 1)
    held, d = codes[row], dest[arm]
    if statistics is Statistics.FERMION:
        # the sign (-1) ** (number of occupied modes below)
        factor = 1.0 - 2.0 * (np.bitwise_count(held & (d - 1)) & 1)
    else:
        factor = np.sqrt(held // d % base + 1.0)
    # a creation never lands in an occupied fermion mode and a boson digit
    # of base n + 1 cannot overflow below level n, so every configuration
    # made is one of the next level
    number = np.searchsorted(following, held + d).astype(np.int32)
    first = np.zeros(codes.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=codes.size), out=first[1:])
    return first, arm.astype(np.int8), number, factor


def _mirror_sign(codes: np.ndarray) -> np.ndarray:
    """The sign the spin swap of ``_levels`` puts on the amplitude of each
    fermion configuration of one level, whose codes are ``codes``.

    The swap acts on the creation operators, so it reverses the two
    creations of an arm that holds both of its modes: a fermion
    configuration maps to (-1) ** (number of such arms) times its swapped
    configuration.  A boson one maps to its swapped configuration alone.
    """
    # bit 2 * arm of both is set where the arm holds both modes; the mask
    # keeps the even bits, those of the spin-0 modes
    both = codes & (codes >> 1) & 0x5555_5555_5555_5555
    return 1.0 - 2.0 * (np.bitwise_count(both) & 1)


def _output_counts(statistics: Statistics, n: int, m: int) -> np.ndarray:
    """How many configurations of m particles on the 2n modes hold k of them
    in spin 1, for k = 0 to m: the ways to put k particles on the n spin-1
    modes times the ways to put m - k on the n spin-0 modes, C(n, j) ways
    for j fermions and C(n + j - 1, j) for j bosons."""
    fermion = statistics is Statistics.FERMION
    ways = [math.comb(n, j) if fermion else math.comb(n + j - 1, j)
            for j in range(m + 1)]
    return np.array([ways[k] * ways[m - k] for k in range(m + 1)])


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
# fermions or 6 bosons took 20.5 and 16.8 ms and needed 1.9 and 2.1 MB
# beyond the memo at 2**13; 2**12 took 6-14% more time, and 2**14 took 6%
# less for fermions and 10% more for bosons and needed 2.3 and 3.3 MB.
# One chunk per step took 45-50% longer and 43 MB.  Since every level
# keeps only its spin-0 half, 2**13 needs 1.4 and 1.6 MiB by tracemalloc.
_CHUNK_TERMS = 1 << 13


def _expansions(statistics: Statistics, u: MultiportUnitary) -> _Expansions:
    """What the multiport does to each of the 2**n one-per-arm input
    configurations (see ``_Expansions``).

    An expansion is independent of the rest of the superposition, so all
    2**n are expanded together, one creation step for all of them at a time,
    and memoized on ``u`` once per statistics.  Each step keeps only its
    spin-0 half and reads its parents, both halves of the level before,
    through ``_gathered`` (see the module docstring).
    """
    memo = u._expansions
    if statistics in memo:
        return memo[statistics]
    n = u.n
    levels, swaps, patterns, labels = _levels(statistics, n)
    fermion = statistics is Statistics.FERMION
    # |config> = prod(creations, ascending) applied to the vacuum: step t
    # creates the particle of arm n - 1 - t, and node p + s * 2**t of step t
    # is node p of step t - 1 with spin s; the root holds the vacuum.  A
    # level keeps the configuration numbers and amplitudes of the outputs
    # of its spin-0 half, node by node, node i at offsets[i]:offsets[i + 1];
    # node p of step t is its parent's spin-0 child, for p below 2**t
    level = _Expansions(None, None, None, np.zeros(1, dtype=np.int32),
                        np.ones(1, dtype=complex), np.array([0, 1]),
                        np.ones(1, dtype=np.int64), swaps[0], None)
    for step in range(n):
        first, arms, numbers, factors = _creations(
            statistics, n, levels[step], levels[step + 1])
        width = levels[step + 1].size
        entry = u.matrix[n - 1 - step]
        half = level.sizes.size
        # a node holds step + 1 particles, as many in spin 1 as its bits
        sizes = _output_counts(statistics, n, step + 1)[
            np.bitwise_count(np.arange(2 * half))]
        offsets = np.concatenate(([0], np.cumsum(sizes[:half])))
        index = np.empty(offsets[-1], dtype=np.int32)
        amplitudes = np.empty(offsets[-1], dtype=complex)
        bounds = _packed((level.sizes * n).tolist(), _CHUNK_TERMS)
        for a, b in zip(bounds, bounds[1:]):
            # nodes a to b - 1: each parent's terms, each created into
            # mode 2 * arm for every arm the table allows, term-major,
            # arm-minor, as the node's own loop visits them; their parents
            # are nodes a to b - 1 of the parent level
            owner = np.repeat(np.arange(b - a), level.sizes[a:b])
            row, amp = _gathered(np.arange(a, b), level)
            count = first[row + 1] - first[row]
            at = _ranges(first[row], count)
            term = _product(amp, count, entry[arms[at]])
            # a real factor times each part: a complex-by-real product
            # would round the signs of zeros differently
            factor = factors[at]
            term.real *= factor
            term.imag *= factor
            # a key per node and configuration, each node's in the order
            # its loop first meets them, so node by node, and its terms
            # numbered by their key's cell in that order
            key = np.repeat(owner * width, count) + numbers[at]
            cell = np.full((b - a) * width, np.iinfo(np.int32).max,
                           dtype=np.int32)
            merged = _first_seen(key, cell)
            lo, hi = offsets[a], offsets[b]
            if merged.size != hi - lo:
                raise RuntimeError(f"expansion step {step} made {merged.size} "
                                   f"outputs, not the closed form's {hi - lo}")
            cell[merged] = np.arange(merged.size, dtype=np.int32)
            index[lo:hi] = merged % width
            # zeroed here rather than by np.zeros: on a 2-core Xeon the
            # calloc'd level arrays made fresh CLI scans 4-6% slower, by
            # memory the allocator handed back and fetched again
            amplitudes[lo:hi] = 0.0
            np.add.at(amplitudes[lo:hi], cell[key], term)
        # the table is let go before the next step builds its own
        del first, arms, numbers, factors
        level = _Expansions(None, None, None, index, amplitudes, offsets,
                            sizes, swaps[step + 1],
                            _mirror_sign(levels[step + 1]) if fermion
                            else None)
    # bit t of a last-step node is the spin of arm n - 1 - t, as it is of
    # a basis index: the nodes come in basis-index order
    for array in (level.index, level.amplitudes, level.offsets, level.sizes,
                  level.swap, level.sign):
        if array is not None:
            array.setflags(write=False)
    memo[statistics] = level._replace(codes=levels[n], patterns=patterns,
                                      labels=labels)
    return memo[statistics]


def _gathered(index: np.ndarray, expansions: _Expansions
              ) -> tuple[np.ndarray, np.ndarray]:
    """The expansions of basis indices ``index``, one after the other:
    each output's number (int32) and amplitude.

    ``expansions`` is the memo, which the merge reads, or a level of
    ``_expansions``, whose nodes the next creation step reads as its
    parents.  Index i below half, the kept nodes, reads its slice.  Index i
    from half on is the spin swap of its complement 2 * half - 1 - i, which
    is kept: each output number goes through the swap map, and a fermion
    amplitude is multiplied by the sign and then ``+ 0.0``, so that a
    negated zero is the +0.0 that a sum from 0.0 leaves.  This is the only
    place the mirror is applied.
    """
    half = expansions.offsets.size - 1
    mirrored = index >= half
    lengths = expansions.sizes[index]
    kept = np.minimum(index, 2 * half - 1 - index)
    at = _ranges(expansions.offsets[kept], lengths)
    number = expansions.index[at]
    amplitudes = expansions.amplitudes[at]
    if mirrored.any():
        swapped = np.repeat(mirrored, lengths)
        original = number[swapped]
        number[swapped] = expansions.swap[original]
        if expansions.sign is not None:
            # a sign of +-1 multiplies each part exactly, and + 0.0 makes
            # either part's zero +0.0, whatever sign the product gave it
            amplitudes[swapped] = (amplitudes[swapped]
                                   * expansions.sign[original] + 0.0)
    return number, amplitudes


def _terms(index: np.ndarray, amplitudes: np.ndarray,
           expansions: _Expansions) -> tuple[np.ndarray, np.ndarray]:
    """Every expansion output of the inputs, basis index ``index[k]`` with
    amplitude ``amplitudes[k]``, in the dict loop's order: its output
    number and the term amp * a, formed by ``_product``.
    """
    number, out = _gathered(index, expansions)
    return number, _product(amplitudes, expansions.sizes[index], out)


# Accumulator cells of one group of members, at most, a term counting as
# eight (see ``interfere``): a member with more makes a group of its own,
# whose terms ``_merge`` walks in chunks of ``_GROUP_BUDGET // 8``, the most
# terms a group under the budget holds, so that such a group is one chunk.
# A cell takes 20 bytes, a 4-byte mark and a 16-byte complex sum, and a
# chunk's terms about 50 bytes each at their peak.  A group of one-input
# members allocates no cells (see ``_merge``), so the budget overstates it.
# Every call of the benchmark's sweep is one group.  On a 2-core Xeon,
# aligned and mixed calls of 7 fermions or 6 bosons needed at most 2.6 MB
# beyond the memo by tracemalloc, where one group of all members had needed
# 10-22 MB.
_GROUP_BUDGET = 1 << 18


def _merge(member: np.ndarray, index: np.ndarray, amplitudes: np.ndarray,
           expansions: _Expansions) -> tuple[np.ndarray, ...]:
    """Send a group of members through the multiport and merge their terms.

    Input k of the group, listed member by member as the dict loop visits
    them, is basis index ``index[k]`` of member ``member[k]``, counted from
    0 in the group, with amplitude ``amplitudes[k]``.  The terms, every
    expansion output of every input (see ``_terms``), are listed in the
    loop's order and keyed by their member and output number; the merged
    outputs, one per key, come in the order the loop first meets them.
    Returns each merged output's member, output number, complex
    amplitude, and abs(amp) ** 2, 0.0 where the modulus is at most ``TOL``,
    so that the output is dropped.  A kept output's modulus exceeds
    ``TOL``, so its square exceeds TOL ** 2 > 0.

    The terms are walked in chunks of whole inputs and about
    ``_GROUP_BUDGET // 8`` terms, so a group under the budget is one chunk
    and a member over it holds its accumulator cells and one chunk at a
    time.  Each key has one cell, which ``_first_seen`` marks when the walk
    first meets it, and ``np.add.at`` adds each chunk's terms into the
    cells one after the other, from 0.0: each merged output's terms in the
    loop's order.

    A group whose members hold one input each, such as the maximally
    mixed state's basis vectors, has nothing to merge: one expansion's
    outputs are distinct, so each key is one term, met in list order.  Its
    terms are its merged outputs as they stand, a lone term plus 0.0, which
    turns -0.0 into +0.0 as a sum from 0.0 does, with no accumulator cells.
    """
    lengths = expansions.sizes[index]
    # members are numbered from 0 and each holds an input; through the
    # cells instead, a fresh maximally_mixed(7) took 11.0-12.0 ms against
    # 7.8-8.8 ms for fermions on a 2-core Xeon
    if member.size == member[-1] + 1:
        number, amps = _terms(index, amplitudes, expansions)
        owner = np.repeat(member, lengths)
        amps += 0.0
    else:
        outputs = expansions.codes.size
        # one accumulator cell per member and output
        cells = (member[-1] + 1) * outputs
        cell = np.full(cells, np.iinfo(np.int32).max, dtype=np.int32)
        sums = np.zeros(cells, dtype=complex)
        merged = []
        bounds = _packed(lengths.tolist(), _GROUP_BUDGET // 8)
        for a, b in zip(bounds, bounds[1:]):
            number, terms = _terms(index[a:b], amplitudes[a:b], expansions)
            key = np.repeat(member[a:b] * outputs, lengths[a:b])
            key += number
            del number
            merged.append(_first_seen(key, cell))
            # complex sums add the real and the imaginary parts apart
            np.add.at(sums, key, terms)
        del cell, key, terms
        merged = np.concatenate(merged)
        amps = sums[merged]
        owner, number = np.divmod(merged, outputs)
    # abs(amp) and its square, rounded as Python rounds them
    moduli = np.hypot(amps.real, amps.imag)
    # amplitudes below TOL are interference zeros
    squares = np.where(moduli > TOL, np.float_power(moduli, 2.0), 0.0)
    norm_sq = np.bincount(owner, squares)
    if np.abs(norm_sq - 1.0).max() > SUM_TOL:
        raise ValueError("evolved states must be normalized, got "
                         f"|psi|^2 = {norm_sq.tolist()!r}")
    return owner, number, amps, squares


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
    expansions = _expansions(state.statistics, u)
    _, number, amplitudes, squares = _merge(np.zeros_like(index), index,
                                            amplitudes, expansions)
    kept = squares > 0
    codes = expansions.codes[number[kept]]
    configs = _configurations(codes, state.statistics, u.n)
    return FockState(state.statistics, dict(zip(configs, amplitudes[kept])))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of per-arm particle counts, internal states traced out;
    ``interfere`` and ``spatial_distribution`` list the patterns in
    ascending order."""

    probabilities: Mapping[Pattern, float]
    n_arms: int = field(init=False)  # the first pattern's length, 0 if none

    def __post_init__(self) -> None:
        # a read-only copy, so that a distribution can be shared
        object.__setattr__(self, "probabilities",
                           MappingProxyType(dict(self.probabilities)))
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
        # written so that a NaN fails it
        if not abs(total - 1.0) <= SUM_TOL:
            raise ValueError(f"probabilities must sum to one, got {total!r}")

    def probability(self, pattern: Pattern) -> float:
        return self.probabilities.get(tuple(pattern), 0.0)

    def antibunch_probability(self) -> float:
        """Probability that every particle exits through its own arm."""
        return self.probability((1,) * self.n_arms)


def spatial_distribution(ensemble: Ensemble) -> OutcomeDistribution:
    """Arm-count distribution of a weighted ensemble of Fock states, in
    ascending pattern order, with the pattern of every configuration listed,
    even one of amplitude zero."""
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
    totals = np.zeros(len(labels))
    # np.add.at adds repeated indices one after the other, in order
    np.add.at(totals, patterns.ravel(), probabilities)
    return OutcomeDistribution(dict(zip(map(tuple, labels.tolist()), totals)))


# What ``interfere`` answered, per statistics, on each ``DensityMatrix``
# sent through the default multiport: an entry lives as long as its state.
_answers: WeakKeyDictionary = WeakKeyDictionary()


def interfere(internal, statistics: Statistics | str,
              unitary: MultiportUnitary | None = None) -> OutcomeDistribution:
    """Full pipeline: load, evolve through the multiport, count arms.

    ``internal`` is as ``prepare_input`` takes it, a one-dimensional state
    vector or a ``DensityMatrix`` over n qubits, and ``statistics`` is a
    ``Statistics`` member or its value.  The default unitary is the n-arm
    discrete-Fourier multiport.  The result is ``spatial_distribution`` of
    every member ``evolve``d, computed from the members' vectors without
    building a ``FockState``: the patterns of the kept outputs, in
    ascending order, a pattern whose outputs are all interference zeros
    left out.  The members run in groups under ``_GROUP_BUDGET``, one
    ``_merge`` each.

    A ``DensityMatrix`` through the default multiport keeps its answer for
    each statistics, so asking again returns the same read-only
    distribution without loading the state, and the state is
    eigendecomposed once per statistics; a call with ``unitary``, or on
    a state vector, is computed afresh and kept nowhere.
    """
    statistics = Statistics(statistics)
    kept = None
    if unitary is None and isinstance(internal, DensityMatrix):
        kept = _answers.setdefault(internal, {})
        if statistics in kept:
            return kept[statistics]
    ensemble = prepare_input(internal)
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
    expansions = _expansions(statistics, u)
    # each member's accumulator cells and terms; a term is counted as
    # eight cells (see ``_GROUP_BUDGET``)
    cost = (8 * np.bincount(member, expansions.sizes[index])
            + expansions.codes.size)
    bounds = _packed(cost.astype(np.int64).tolist(), _GROUP_BUDGET)
    starts = np.searchsorted(member, bounds).tolist()
    labels = expansions.labels
    totals = np.zeros(len(labels))
    for first, lo, hi in zip(bounds, starts, starts[1:]):
        owner, number, _, squares = _merge(
            member[lo:hi] - first, index[lo:hi], amplitudes[lo:hi], expansions)
        # the members' outputs in the loop's order, the dropped ones adding
        # 0.0, which leaves every sum as it is
        np.add.at(totals, expansions.patterns[number],
                  weights[first + owner] * squares)
    # a kept output adds a weight above TOL / 2**n times a square above
    # TOL ** 2, so a pattern is present exactly where its total is positive
    present = np.flatnonzero(totals > 0).tolist()
    answer = OutcomeDistribution({labels[i]: totals[i] for i in present})
    if kept is not None:
        kept[statistics] = answer
    return answer
