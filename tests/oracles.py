"""Independent second routes to the package's quantities, for tests only.

Each oracle computes something the package also computes, by a route that
shares no code with the production path: sphere quadrature over the
fixed-direction states for the direction-averaged mixtures, a Dicke basis
and explicit qubit-permutation operators for the symmetric projector,
explicit (anti)symmetrization of labeled particles and, up to the capacity,
determinants and permanents of the arm unitary for the Fock pipeline and
for the fermions' one-per-arm pattern, a second balanced two-port
convention, and full enumeration of routings for
the classical exclusion model.  They are slow on purpose and are never
imported by ``src/``.

One oracle is not independent but literal: the Fock pipeline as the plain
dict loop it replaced, on the ``FockState`` members that ``fock_ensemble``
loads, which the numpy kernel must match bit for bit: every amplitude and
probability, and the configuration order of an evolved state.  The loop
lists arm-count patterns as it first meets them and the kernel in
ascending order, so the tests sort the loop's patterns before comparing.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from typing import Callable, Sequence

import numpy as np

from statdisc.core import TOL, DensityMatrix, check_register
from statdisc.multiport import (Ensemble, FockState, MultiportUnitary,
                                Occupation, OutcomeDistribution, Pattern,
                                Statistics, dft_unitary, prepare_input)
from statdisc.states import BlochDirection, bloch_state, orthogonal_state


# ------------------------------------------------------------ quadrature

@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Nodes and weights for averaging over the unit sphere."""

    directions: tuple[BlochDirection, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        if len(self.directions) == 0:
            raise ValueError("quadrature scheme needs at least one node")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.directions),):
            raise ValueError("one weight per direction required")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def monte_carlo(cls, n_nodes: int = 10_000, seed: int = 42) -> "SphereQuadrature":
        """Uniformly random directions; error falls off like 1/sqrt(n_nodes)."""
        if n_nodes < 1:
            raise ValueError("quadrature scheme needs at least one node")
        rng = np.random.default_rng(seed)
        cos_theta = rng.uniform(-1.0, 1.0, n_nodes)
        phi = rng.uniform(0.0, 2.0 * math.pi, n_nodes)
        dirs = tuple(BlochDirection(math.acos(c), p)
                     for c, p in zip(cos_theta, phi))
        return cls(dirs, np.full(n_nodes, 1.0 / n_nodes))

    @classmethod
    def gauss_product(cls, n_polar: int = 25,
                      n_azimuthal: int = 400) -> "SphereQuadrature":
        """Gauss-Legendre (polar) x uniform (azimuth) product grid.

        Exact to rounding for integrands polynomial of degree < 2*n_polar in
        cos(theta) and band-limited below n_azimuthal in phi, which covers
        every direction average taken in this package.
        """
        if n_polar < 1 or n_azimuthal < 1:
            raise ValueError("quadrature scheme needs at least one node")
        x, w = np.polynomial.legendre.leggauss(n_polar)
        dirs = []
        weights = []
        for c, wc in zip(x, w):
            theta = math.acos(c)
            for j in range(n_azimuthal):
                dirs.append(BlochDirection(theta, 2.0 * math.pi * j / n_azimuthal))
                weights.append(wc / (2.0 * n_azimuthal))
        return cls(tuple(dirs), np.array(weights))


def aligned_direction_state(omega: BlochDirection, n: int) -> DensityMatrix:
    """n qubits all pointing along the same known direction."""
    check_register(n)
    ket = bloch_state(omega)
    single = np.outer(ket, ket.conj())
    m = single
    for _ in range(n - 1):
        m = np.kron(m, single)
    return DensityMatrix(m)


def antialigned_direction_state(omega: BlochDirection) -> DensityMatrix:
    """Qubit pair pointing in opposite directions along a known axis."""
    up = bloch_state(omega)
    down = orthogonal_state(omega)
    m = np.kron(np.outer(up, up.conj()), np.outer(down, down.conj()))
    return DensityMatrix(m)


def quadrature_average(builder: Callable[[BlochDirection], DensityMatrix],
                       scheme: SphereQuadrature) -> DensityMatrix:
    """Weighted average of ``builder(direction)`` over the scheme's nodes.

    Summation order is fixed by the scheme, so results are reproducible
    bit for bit.
    """
    total = None
    n_qubits = None
    for direction, weight in zip(scheme.directions, scheme.weights):
        state = builder(direction)
        if total is None:
            total = weight * state.matrix
            n_qubits = state.n_qubits
        else:
            if state.n_qubits != n_qubits:
                raise ValueError("builder returned inconsistent registers")
            total = total + weight * state.matrix
    return DensityMatrix(total)


# ----------------------------------------------------------- Dicke basis

@dataclass(frozen=True, eq=False)
class DickeBasis:
    """Orthonormal permutation-invariant kets, ordered by excitation number.

    Row k of ``vectors`` is the normalized equal-weight sum of all basis
    states with exactly k qubits flipped.
    """

    n_qubits: int
    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=complex)
        if v.shape != (self.n_qubits + 1, 2 ** self.n_qubits):
            raise ValueError(f"expected {self.n_qubits + 1} vectors of "
                             f"dimension {2 ** self.n_qubits}")
        gram = v.conj() @ v.T
        if np.max(np.abs(gram - np.eye(self.n_qubits + 1))) > 1e-12:
            raise ValueError("vectors must be orthonormal")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    def projector(self) -> np.ndarray:
        """Sum of the outer products; equals the symmetric projector."""
        return self.vectors.T @ self.vectors.conj()


def dicke_basis(n: int) -> DickeBasis:
    if n < 1:
        raise ValueError("n must be at least 1")
    dim = 2 ** n
    vectors = np.zeros((n + 1, dim), dtype=complex)
    for idx in range(dim):
        vectors[idx.bit_count(), idx] = 1.0
    norms = np.sqrt(vectors.sum(axis=1).real)
    vectors /= norms[:, None]
    return DickeBasis(n, vectors)


# --------------------------------------------------- qubit permutations

def permutation_operator(perm: Sequence[int]) -> np.ndarray:
    """Unitary permuting the qubits of a register.

    Output qubit ``j`` carries what input qubit ``perm[j]`` carried.  Qubit 0
    is the leftmost factor, hence the most significant bit of a basis index.
    """
    p = tuple(int(i) for i in perm)
    n = len(p)
    if sorted(p) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    dim = 1 << n
    shifts = np.arange(n - 1, -1, -1)
    bits = (np.arange(dim)[:, None] >> shifts[None, :]) & 1
    rows = bits[:, list(p)] @ (1 << shifts)
    op = np.zeros((dim, dim), dtype=complex)
    op[rows, np.arange(dim)] = 1.0
    return op


# ------------------------------------------------------------ multiports

def symmetric_two_port() -> MultiportUnitary:
    """Alternative balanced two-port with i on the off-diagonal.

    Arm statistics must not depend on which balanced convention is used;
    tests re-run the two-particle cases through this one.
    """
    m = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
    return MultiportUnitary(m)


def _parity(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def first_quantized_distribution(internal, statistics: Statistics | str,
                                 unitary: MultiportUnitary | None = None
                                 ) -> OutcomeDistribution:
    """Explicit (anti)symmetrization of labeled particles.

    Builds the n-particle wavefunction on ((arm) x (internal))^n, applies
    the arm unitary to every particle slot, and reads arm counts from the
    squared amplitudes.  Shares no code with the Fock-space path.
    """
    statistics = Statistics(statistics)
    v = np.asarray(internal, dtype=complex).reshape(-1)
    n = v.size.bit_length() - 1
    if 2 ** n != v.size or n < 1:
        raise ValueError(f"internal register dimension {v.size} is not a "
                         "power of two")
    # the labeled wavefunction has (2n)**n entries: 1.7 GB per array at n = 7
    if n > 6:
        raise ValueError(f"the first-quantized oracle stops at n = 6, "
                         f"got n = {n}")
    v = v / np.linalg.norm(v)
    u = dft_unitary(n) if unitary is None else unitary
    if u.n != n:
        raise ValueError(f"unitary has {u.n} arms, state has {n}")
    d = 2 * n  # single-particle dimension, index = 2*arm + spin
    psi = np.zeros((d,) * n, dtype=complex)
    for idx in range(v.size):
        slot = tuple(2 * arm + ((idx >> (n - 1 - arm)) & 1) for arm in range(n))
        psi[slot] += v[idx]
    total = np.zeros_like(psi)
    for perm in permutations(range(n)):
        sign = _parity(perm) if statistics is Statistics.FERMION else 1
        total += sign * np.transpose(psi, perm)
    total /= np.linalg.norm(total)
    single = np.kron(u.matrix, np.eye(2))
    for axis in range(n):
        total = np.moveaxis(np.tensordot(single, total, axes=([1], [axis])),
                            0, axis)
    probs: dict[Pattern, float] = defaultdict(float)
    for slot, amp in np.ndenumerate(total):
        p = abs(amp) ** 2
        if p < 1e-24:
            continue
        counts = [0] * n
        for mode in slot:
            counts[mode // 2] += 1
        probs[tuple(counts)] += p
    return OutcomeDistribution(dict(probs))


# -------------------------------------- determinants and permanents of u

def _permanents(a: np.ndarray) -> np.ndarray:
    """Permanents of a stack of j x j matrices, by Ryser's formula:
    perm A = sum over column subsets S of (-1)**(j - |S|) times the
    product over rows r of sum_{c in S} A[r, c]."""
    j = a.shape[-1]
    subsets = (np.arange(1 << j)[:, None] >> np.arange(j)) & 1
    signs = (-1.0) ** (j - subsets.sum(axis=1))
    return np.prod(a @ subsets.T, axis=-2) @ signs


def _minors(u: np.ndarray, j: int, statistics: Statistics | str):
    """det u[G, B] for fermions, perm u[G, B] for bosons, for every j-subset
    G of rows and every j-subset (fermions) or j-multiset (bosons) B of
    columns, both listed in ascending order: a (rows, columns) table, the
    row subsets' positions by subset, and each column choice's arm counts."""
    statistics = Statistics(statistics)
    n = len(u)
    rows = list(combinations(range(n), j))
    cols = list((combinations if statistics is Statistics.FERMION
                 else combinations_with_replacement)(range(n), j))
    counts = np.zeros((len(cols), n), dtype=np.int64)
    for i, col in enumerate(cols):
        for arm in col:
            counts[i, arm] += 1
    # j = 0 leaves one empty row and column choice, whose 0 x 0 minor is 1
    r = np.array(rows, dtype=np.intp).reshape(len(rows), 1, j, 1)
    c = np.array(cols, dtype=np.intp).reshape(1, len(cols), 1, j)
    values = (np.linalg.det(u[r, c]) if statistics is Statistics.FERMION
              else _permanents(u[r, c]))
    return values, {row: i for i, row in enumerate(rows)}, counts


def _inversions(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The pairs of arms a < b with ``first[..., a]`` and ``second[..., b]``
    set, the leading axes broadcast."""
    later = np.cumsum(second[..., ::-1], axis=-1)[..., ::-1] - second
    return (first * later).sum(axis=-1)


def factorised_block(statistics: Statistics | str, u: MultiportUnitary,
                     k: int):
    """The amplitudes of every spin string with k particles in spin 1, one
    per arm, into every output, from a factorisation of each amplitude.

    A string with its spin-0 particles in arms G0 and its spin-1 particles
    in arms G1 goes into the output with spin-0 particles in arms B0 and
    spin-1 particles in arms B1, m0 and m1 of them per arm, with amplitude

    * fermions: sgn * det u[G0, B0] * det u[G1, B1];
    * bosons: perm u[G0, B0] * perm u[G1, B1] / sqrt(prod m0! prod m1!)

    (Shchesnovich, PRA 91, 013844 (2015); Tichy, PRA 91, 022316 (2015)).
    sgn is (-1) to the power of the inversions that reorder the arm-major
    creations into a spin-0 block followed by a spin-1 block, counted on
    both sides: the input arms a < b with spin 1 in a and spin 0 in b, and
    the pairs of a spin-1 output arm a and a spin-0 output arm b > a.

    Returns the strings' basis indices, ascending, and an array t of shape
    (B0 choices, B1 choices, strings) of the amplitudes, with the arm
    counts of each B0 and each B1 choice.
    """
    statistics = Statistics(statistics)
    n = u.n
    spins = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    block = np.flatnonzero(spins.sum(axis=1) == k)
    spins = spins[block]
    values0, rows0, counts0 = _minors(u.matrix, n - k, statistics)
    values1, rows1, counts1 = _minors(u.matrix, k, statistics)
    g0 = [rows0[tuple(np.flatnonzero(s == 0).tolist())] for s in spins]
    g1 = [rows1[tuple(np.flatnonzero(s == 1).tolist())] for s in spins]
    t = values0[g0].T[:, None, :] * values1[g1].T[None, :, :]
    if statistics is Statistics.FERMION:
        sign_in = (-1.0) ** _inversions(spins, 1 - spins)
        sign_out = (-1.0) ** _inversions(counts1[None, :, :],
                                         counts0[:, None, :])
        t *= sign_in * sign_out[:, :, None]
    else:
        norm0 = np.sqrt([math.prod(map(math.factorial, c)) for c in counts0])
        norm1 = np.sqrt([math.prod(map(math.factorial, c)) for c in counts1])
        t /= (norm0[:, None] * norm1[None, :])[:, :, None]
    return block, t, counts0, counts1


def factorised_distribution(internal: DensityMatrix,
                            statistics: Statistics | str,
                            unitary: MultiportUnitary | None = None
                            ) -> OutcomeDistribution:
    """Arm counts of one particle per arm, from ``factorised_block``.

    A string's outputs hold as many spin-1 particles as it does, so each
    block of k spin-1 particles passes alone, and its outputs'
    probabilities are the diagonal of t rho_k t^dagger: linear in rho, with
    no eigendecomposition.  Every pattern of the outputs is listed, in
    ascending order, even one of probability zero.
    """
    statistics = Statistics(statistics)
    rho = internal.matrix
    n = internal.n_qubits
    u = dft_unitary(n) if unitary is None else unitary
    if u.n != n:
        raise ValueError(f"unitary has {u.n} arms, state has {n}")
    totals: dict[Pattern, float] = defaultdict(float)
    for k in range(n + 1):
        block, t, counts0, counts1 = factorised_block(statistics, u, k)
        probs = (t @ rho[np.ix_(block, block)] * t.conj()).sum(axis=2).real
        patterns = counts0[:, None, :] + counts1[None, :, :]
        for pattern, p in zip(map(tuple, patterns.reshape(-1, n).tolist()),
                              probs.ravel().tolist()):
            totals[pattern] += p
    return OutcomeDistribution(dict(sorted(totals.items())))


def exclusion_mixed_probability(n: int) -> float:
    """P_mixed(1, ..., 1): the chance that n fermions in the maximally mixed
    state leave the n-arm DFT one per arm, by determinants alone.

    A spin string with its spin-1 particles in arms G reaches one particle
    per arm, spin 1 in arms B with |B| = |G|, with probability
    |det u[G, B]|**2 * |det u[G', B']|**2, primes the complements, and the
    mixed state weighs each of the 2**n strings by 2**-n.
    """
    u = dft_unitary(n).matrix
    total = 0.0
    for k in range(n + 1):
        subsets = list(combinations(range(n), k))
        rest = [[a for a in range(n) if a not in s] for s in subsets]
        g = np.array(subsets, dtype=np.intp).reshape(len(subsets), 1, k, 1)
        g_rest = np.array(rest, dtype=np.intp).reshape(len(rest), 1, n - k, 1)
        # every G against every B; a 0 x 0 determinant is 1
        spin1 = np.abs(np.linalg.det(u[g, g.transpose(1, 0, 3, 2)])) ** 2
        spin0 = np.abs(np.linalg.det(
            u[g_rest, g_rest.transpose(1, 0, 3, 2)])) ** 2
        total += float((spin1 * spin0).sum())
    return total / 2 ** n


# ---------------------------------------------- Fock pipeline as a dict loop

def one_per_arm(n: int) -> list[Occupation]:
    """The configuration that each basis index of n qubits stands for.

    Basis index bit i (most significant first) is the internal state s of
    the particle entering arm i, which occupies mode 2*i + s.
    """
    return [sum(arms, ()) for arms in product(((1, 0), (0, 1)), repeat=n)]


def fock_ensemble(internal, statistics: Statistics | str) -> Ensemble:
    """``prepare_input``'s members as Fock states: each entry of a unit
    vector above ``TOL`` becomes its configuration's amplitude, in basis
    index order.  One particle per arm puts the creation operators in
    ascending mode order, so no entry changes sign."""
    ensemble = []
    for weight, vec in prepare_input(internal):
        configs = one_per_arm(vec.size.bit_length() - 1)
        ensemble.append((weight, FockState(statistics, {
            config: c for config, c in zip(configs, vec.tolist())
            if abs(c) > TOL})))
    return ensemble


def _apply_creation(config: Occupation, mode: int, statistics: Statistics):
    """Create one particle in ``mode``; returns (factor, new_config) or None."""
    occupied = config[mode]
    if statistics is Statistics.FERMION:
        if occupied:
            return None
        sign = -1.0 if sum(config[:mode]) % 2 else 1.0
        return sign, config[:mode] + (1,) + config[mode + 1:]
    return (math.sqrt(occupied + 1.0),
            config[:mode] + (occupied + 1,) + config[mode + 1:])


def dict_expansion(config: Occupation, statistics: Statistics,
                   u: MultiportUnitary) -> dict[Occupation, complex]:
    """Output amplitudes of one unit-amplitude input configuration.

    Each creation operator of the ascending product, rightmost first, is
    replaced by its image under the arm unitary and multiplied out.
    """
    n = u.n
    modes = [m for m, k in enumerate(config) for _ in range(k)]
    start = 1.0 / math.sqrt(math.prod(math.factorial(k) for k in config))
    working: dict[Occupation, complex] = {(0,) * (2 * n): start}
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
    return dict(working)


def dict_evolve(state: FockState, u: MultiportUnitary) -> FockState:
    """The state sent through the multiport, interference zeros dropped."""
    out: dict[Occupation, complex] = defaultdict(complex)
    for config, amp in state.amplitudes.items():
        for cfg, a in dict_expansion(config, state.statistics, u).items():
            out[cfg] += amp * a
    kept = {cfg: a for cfg, a in out.items() if abs(a) > TOL}
    return FockState(state.statistics, kept)


def dict_spatial_distribution(ensemble: Ensemble) -> OutcomeDistribution:
    """Arm-count distribution of a weighted ensemble of Fock states."""
    probs: dict[Pattern, float] = defaultdict(float)
    for weight, state in ensemble:
        for config, amp in state.amplitudes.items():
            pattern = tuple(config[2 * a] + config[2 * a + 1]
                            for a in range(state.n_arms))
            probs[pattern] += weight * abs(amp) ** 2
    return OutcomeDistribution(dict(probs))


def dict_interfere(internal, statistics: Statistics,
                   unitary: MultiportUnitary | None = None
                   ) -> OutcomeDistribution:
    """``interfere`` as load, evolve each member, count arms."""
    ensemble = fock_ensemble(internal, statistics)
    u = dft_unitary(ensemble[0][1].n_arms) if unitary is None else unitary
    return dict_spatial_distribution([(w, dict_evolve(s, u))
                                      for w, s in ensemble])


# ------------------------------------------------------- classical model

def _group_routings(n_arms: int, size: int, cap: int) -> list[tuple[int, ...]]:
    """All arm assignments of one same-spin group, at most ``cap`` per arm."""
    if cap == 1:
        return list(permutations(range(n_arms), size))
    routings = []
    for routing in product(range(n_arms), repeat=size):
        counts = [0] * n_arms
        ok = True
        for arm in routing:
            counts[arm] += 1
            if counts[arm] > cap:
                ok = False
                break
        if ok:
            routings.append(routing)
    return routings


def series_capped_routings(n_arms: int, size: int, cap: int) -> int:
    """Arm assignments of ``size`` labeled particles, at most ``cap`` per arm,
    as size! [x^size] (sum_{j<=cap} x^j/j!)^n_arms multiplied out in
    exact fractions."""
    arm = [Fraction(1, math.factorial(j)) for j in range(cap + 1)]
    series = [Fraction(1)] + [Fraction(0)] * size
    for _ in range(n_arms):
        series = [sum(series[i - j] * arm[j] for j in range(min(i, cap) + 1))
                  for i in range(size + 1)]
    return int(math.factorial(size) * series[size])


def enumerated_pauli_success(n: int, interpretation: str = "standard") -> float:
    """The classical exclusion model by full enumeration.

    Same game as ``classical_pauli_success``: every spin assignment and
    every pair of same-spin group routings is listed, and the fraction
    leaving all arms distinct is counted, in exact fractions.
    """
    cap = {"standard": 1, "literal": 2}[interpretation]
    distinct_given_ups: dict[int, Fraction] = {}
    for ups in range(n + 1):
        group_up = _group_routings(n, ups, cap)
        group_down = _group_routings(n, n - ups, cap)
        allowed = 0
        distinct = 0
        for a in group_up:
            for b in group_down:
                allowed += 1
                if len(set(a + b)) == n:
                    distinct += 1
        distinct_given_ups[ups] = Fraction(distinct, allowed)

    p_correct_aligned = distinct_given_ups[0]
    p_correct_mixed = Fraction(0)
    for labels in product((0, 1), repeat=n):
        p_correct_mixed += (1 - distinct_given_ups[sum(labels)])
    p_correct_mixed /= 2 ** n
    return float(p_correct_aligned / 2 + p_correct_mixed / 2)
