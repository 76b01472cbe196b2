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

The kernel does this on numpy arrays of numbered configurations, and
performs the floating-point operations of the plain dict loop
``out[config] += term`` in that loop's order: the terms are listed as the
loop visits them and ``np.bincount`` adds each configuration's terms one
after the other from 0.0, in list order.  Complex products are spelled
out in real arithmetic, and moduli and squares are taken with ``np.hypot``
and ``np.float_power``, because numpy's vectorised complex product,
``abs`` and ``** 2`` round differently from the scalar operations the
loop performed.  Every amplitude and probability is therefore the dict
loop's bit for bit, and so is the order of an evolved ``FockState``'s
configurations; that loop lives on in the test suite as an oracle.  An
arm-count distribution lists its patterns in ascending order, the order
in which every reader of it walks them.

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
commutes with it: node 2**(t+1) - 1 - p, the complement string, is node p
with the spins of every output swapped, times a fermion sign (see
``_mirror_sign``).  A step therefore computes its spin-0 nodes, one per
node of the step before, and mirrors them into its spin-1 half.  A computed
node's terms are listed, grouped and added as that configuration's own
loop would, and a mirrored node's loop would meet the swapped keys in the
same order and add the same terms times the sign, so neither the sharing
nor the mirror changes a bit.  The k-particle configurations of the 2n
modes are numbered in ascending code at each level k, and a term holds the
number of its configuration; level n, C(2n, n) configurations for
fermions and C(3n - 1, n) for bosons, numbers the outputs.  A step reads
its creations from a table with one row per configuration number, which
lists arm by arm the number of the configuration a spin-0 creation makes
and its factor, and finds each key's first term on one accumulator cell
per node and configuration, with no sort.  A node's outputs are the
configurations of its particles with as many in spin 1 as it has set
bits, a closed-form count, so each step's arrays are allocated whole and
filled in chunks of whole nodes and about ``_CHUNK_TERMS`` creations or
mirrored outputs, which bounds the transient memory.  The last step's
arrays are the memo: a 4-byte output number and a 16-byte amplitude per
output, one slice per basis index.

An ensemble's members run in groups under one budget of accumulator
cells and terms (``_merge``), so a call holds the expansion memo and one
group's arrays, whatever the number of members.  Output numbers key the
merge of a group's terms, with no sort, and pattern numbers the total of
each arm-count pattern across groups, in one array.

Two memos keep what the package asks again and again.  Each
``MultiportUnitary`` keeps, per statistics, the output numbering and the
expansions of all 2**n configurations.  ``interfere`` keeps its answer,
per statistics, on each ``DensityMatrix`` it sends through the default
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
    its vector divided by its norm.  A density matrix gives its
    ``eigenstates``, each eigenvector above the weight cutoff a member,
    read-only and eigendecomposed once per instance, however often it is
    loaded; any orthonormal eigenbasis of a degenerate spectrum yields the
    same downstream statistics.  Each member's vector lists the amplitudes
    of the 2**n configurations by basis index (see the module docstring).
    ``interfere`` loads a density matrix through the default multiport
    once per statistics, and after that answers from its memo.
    """
    if isinstance(internal, DensityMatrix):
        return list(internal.eigenstates)
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
    are ``labels[patterns[j]]``; the labels ascend.  The expansion of
    basis index i (see the module docstring) is the slice
    ``offsets[i]:offsets[i + 1]``, of ``sizes[i]`` outputs, of the
    read-only arrays ``index`` and ``amplitudes``: output number
    ``index[o]`` with amplitude ``amplitudes[o]``.  The slices tile both
    arrays in basis-index order.
    """

    codes: np.ndarray
    patterns: np.ndarray
    labels: list[Pattern]
    index: np.ndarray
    amplitudes: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray


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


def _first_seen(key: np.ndarray, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``key``, each below ``cells``, in the order of
    their first appearance, and the number of each key's value in that
    order: one accumulator cell per value, with no sort."""
    terms = np.arange(key.size)
    cell = np.full(cells, key.size)
    np.minimum.at(cell, key, terms)
    merged = key[cell[key] == terms]
    cell[merged] = np.arange(merged.size)
    return merged, cell[key]


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
    mode 2 * arm can take one more particle: the arm, the number of the
    configuration the creation makes, which is its position in
    ``following``, the codes of the next level, and the creation's factor.
    Returns where each row starts, and where the last one ends, then the
    arms (int8), numbers (int32) and factors of the entries.
    """
    base, place = _place_values(statistics, n)
    # the place value of each arm's spin-0 mode
    dest = place[0::2]
    if statistics is Statistics.FERMION:
        # only free modes are created into
        row, arm = np.nonzero((codes[:, None] & dest) == 0)
    else:
        row, arm = np.divmod(np.arange(codes.size * n), n)
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


# Creations, or mirrored outputs, per chunk of one expansion step, at most
# about this many: a chunk holds whole nodes, so a node with more makes a
# chunk of its own.  On a 2-core Xeon, expanding the 2**n one-per-arm
# configurations of 7 fermions or 6 bosons took 20.5 and 16.8 ms and
# needed 1.9 and 2.1 MB beyond the memo at 2**13; 2**12 took 6-14% more
# time, and 2**14 took 6% less for fermions and 10% more for bosons and
# needed 2.3 and 3.3 MB.  One chunk per step took 45-50% longer and 43 MB.
_CHUNK_TERMS = 1 << 13


def _expansions(statistics: Statistics, u: MultiportUnitary) -> _Expansions:
    """What the multiport does to each of the 2**n one-per-arm input
    configurations (see ``_Expansions``).

    An expansion is independent of the rest of the superposition, so all
    2**n are expanded together, one creation step for all of them at a time,
    the spin-1 half of each step mirrored from its spin-0 half (see the
    module docstring), and memoized on ``u`` once per statistics.
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
    # level holds the configuration numbers and amplitudes of its nodes'
    # outputs, node by node, node i at offsets[i]:offsets[i + 1].  Node p
    # of step t is its parent's spin-0 child, for p below half = 2**t
    index, amplitudes = np.zeros(1, dtype=np.int32), np.ones(1, dtype=complex)
    offsets, sizes = np.array([0, 1]), np.ones(1, dtype=np.int64)
    for step in range(n):
        first, arms, numbers, factors = _creations(
            statistics, n, levels[step], levels[step + 1])
        swap = swaps[step + 1]
        sign = _mirror_sign(levels[step + 1]) if fermion else None
        width = levels[step + 1].size
        entry = u.matrix[n - 1 - step]
        entry_re, entry_im = entry.real.copy(), entry.imag.copy()
        half = sizes.size
        held_from, held_sizes = offsets[:-1], sizes
        held, held_amplitudes = index, amplitudes
        # a node holds step + 1 particles, as many in spin 1 as its bits
        sizes = _output_counts(statistics, n, step + 1)[
            np.bitwise_count(np.arange(2 * half))]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        index = np.empty(offsets[-1], dtype=np.int32)
        amplitudes = np.empty(offsets[-1], dtype=complex)
        bounds = _packed((held_sizes * n).tolist(), _CHUNK_TERMS)
        for a, b in zip(bounds, bounds[1:]):
            # nodes a to b - 1: each parent's terms, each created into
            # mode 2 * arm for every arm the table allows, term-major,
            # arm-minor, as the node's own loop visits them
            n_held = held_sizes[a:b]
            owner = np.repeat(np.arange(b - a), n_held)
            src = _ranges(held_from[a:b], n_held)
            row = held[src]
            count = first[row + 1] - first[row]
            at = _ranges(first[row], count)
            amp = held_amplitudes[np.repeat(src, count)]
            arm = arms[at]
            u_re, u_im = entry_re[arm], entry_im[arm]
            # amp * entry, rounded as numpy rounds a scalar complex
            # product
            term_re = amp.real * u_re - amp.imag * u_im
            term_im = amp.real * u_im + amp.imag * u_re
            factor = factors[at]
            term_re *= factor
            term_im *= factor
            # a key per node and configuration, each node's in the order
            # its loop first meets them, so node by node
            merged, group = _first_seen(
                np.repeat(owner * width, count) + numbers[at], (b - a) * width)
            lo, hi = offsets[a], offsets[b]
            if merged.size != hi - lo:
                raise RuntimeError(f"expansion step {step} made {merged.size} "
                                   f"outputs, not the closed form's {hi - lo}")
            index[lo:hi] = merged % width
            amplitudes.real[lo:hi] = np.bincount(group, term_re)
            amplitudes.imag[lo:hi] = np.bincount(group, term_im)
        # the table and the parent level are let go before the mirror
        # writes the spin-1 half, whose pages are untouched until then
        del first, arms, numbers, factors, held, held_amplitudes
        # node half + p is node half - 1 - p with every spin swapped: its
        # loop meets the swapped keys in the same order and adds the same
        # terms times the swap's sign, exactly; + 0.0 turns the -0.0 of a
        # negated zero into the +0.0 that np.bincount leaves
        bounds = _packed(sizes[half:].tolist(), _CHUNK_TERMS)
        for a, b in zip(bounds, bounds[1:]):
            mirrored = half - 1 - np.arange(a, b)
            src = _ranges(offsets[mirrored], sizes[mirrored])
            number = index[src]
            lo, hi = offsets[half + a], offsets[half + b]
            index[lo:hi] = swap[number]
            if sign is None:
                amplitudes[lo:hi] = amplitudes[src]
            else:
                signs = sign[number]
                amplitudes.real[lo:hi] = amplitudes.real[src] * signs + 0.0
                amplitudes.imag[lo:hi] = amplitudes.imag[src] * signs + 0.0
    # bit t of a last-step node is the spin of arm n - 1 - t, as it is of
    # a basis index: the nodes come in basis-index order
    for array in (index, amplitudes, offsets, sizes):
        array.setflags(write=False)
    memo[statistics] = _Expansions(levels[n], patterns, labels, index,
                                   amplitudes, offsets, sizes)
    return memo[statistics]


# Accumulator cells of one group of members, at most, a term counting as
# eight (see ``interfere``): a member with more makes a group of its own.
# Every call of the benchmark's sweep is one group.  On a 2-core Xeon,
# aligned and mixed calls of 7 fermions or 6 bosons needed at most 4.4 MB
# beyond the memo by tracemalloc (2**19: 8.0 MB), where one group of all
# members had needed 10-22 MB.
_GROUP_BUDGET = 1 << 18


def _merge(member: np.ndarray, index: np.ndarray, amplitudes: np.ndarray,
           expansions: _Expansions) -> tuple[np.ndarray, ...]:
    """Send a group of members through the multiport and merge their terms.

    Input k of the group, listed member by member as the dict loop visits
    them, is basis index ``index[k]`` of member ``member[k]``, counted from
    0 in the group, with amplitude ``amplitudes[k]``.  The terms, every
    expansion output of every input, are listed in the loop's order and
    keyed by their member and output number; the merged outputs, one per
    key, come in the order the loop first meets them.  Returns each merged
    output's member, output number, amplitude as (re, im), and
    abs(amp) ** 2, 0.0 where the modulus is at most ``TOL``, so that the
    output is dropped.  A kept output's modulus exceeds ``TOL``, so its
    square exceeds TOL ** 2 > 0.
    """
    lengths = expansions.sizes[index]
    at = _ranges(expansions.offsets[index], lengths)
    out_re = expansions.amplitudes.real[at]
    out_im = expansions.amplitudes.imag[at]
    outputs = expansions.codes.size
    key = np.repeat(member * outputs, lengths)
    key += expansions.index[at]
    del at  # let go before the merge, the peak
    # one accumulator cell per member and output
    merged, group = _first_seen(key, (member[-1] + 1) * outputs)
    del key
    owner, number = np.divmod(merged, outputs)
    a = np.repeat(amplitudes, lengths)
    # amp * a, rounded as numpy rounds a scalar complex product, and each
    # merged output's terms added in the loop's order from 0.0
    re = np.bincount(group, a.real * out_re - a.imag * out_im)
    im = np.bincount(group, a.real * out_im + a.imag * out_re)
    # abs(amp) and its square, rounded as Python rounds them
    moduli = np.hypot(re, im)
    # amplitudes below TOL are interference zeros
    squares = np.where(moduli > TOL, np.float_power(moduli, 2.0), 0.0)
    norm_sq = np.bincount(owner, squares)
    if np.abs(norm_sq - 1.0).max() > SUM_TOL:
        raise ValueError("evolved states must be normalized, got "
                         f"|psi|^2 = {norm_sq.tolist()!r}")
    return owner, number, re, im, squares


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
    _, number, re, im, squares = _merge(np.zeros_like(index), index,
                                        amplitudes, expansions)
    kept = np.flatnonzero(squares > 0)
    amplitudes = np.empty(kept.size, dtype=complex)
    amplitudes.real = re[kept]
    amplitudes.imag = im[kept]
    codes = expansions.codes[number[kept]]
    configs = _configurations(codes, state.statistics, u.n)
    return FockState(state.statistics, dict(zip(configs, amplitudes)))


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
    vector or a ``DensityMatrix`` over n qubits, whose eigenstates are
    computed on its first call and reused by every later one, and
    ``statistics`` is a ``Statistics`` member or its value.  The default
    unitary is the n-arm discrete-Fourier multiport.  The result is
    ``spatial_distribution`` of every member ``evolve``d, computed from the
    members' vectors without building a ``FockState``: the patterns of the
    kept outputs, in ascending order, a pattern whose outputs are all
    interference zeros left out.  The members run in groups under
    ``_GROUP_BUDGET``, one ``_merge`` each.

    A ``DensityMatrix`` through the default multiport keeps its answer for
    each statistics, so asking again returns the same read-only
    distribution without loading the state; a call with ``unitary``, or on
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
    # each member's accumulator cells and terms; a term's arrays take
    # about eight times a cell's eight bytes, so it counts as eight cells
    cost = (8 * np.bincount(member, expansions.sizes[index])
            + expansions.codes.size)
    bounds = _packed(cost.astype(np.int64).tolist(), _GROUP_BUDGET)
    starts = np.searchsorted(member, bounds).tolist()
    labels = expansions.labels
    totals = np.zeros(len(labels))
    for first, lo, hi in zip(bounds, starts, starts[1:]):
        owner, number, _, _, squares = _merge(
            member[lo:hi] - first, index[lo:hi], amplitudes[lo:hi], expansions)
        # the members' outputs in the loop's order, the dropped ones adding
        # 0.0, which leaves every sum as it is
        np.add.at(totals, expansions.patterns[number],
                  weights[first + owner] * squares)
    # a kept output adds a weight above TOL times a square above TOL ** 2,
    # so a pattern is present exactly where its total is positive
    present = np.flatnonzero(totals > 0).tolist()
    answer = OutcomeDistribution({labels[i]: totals[i] for i in present})
    if kept is not None:
        kept[statistics] = answer
    return answer
