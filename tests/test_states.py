import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statdisc.core import (MAX_QUBITS, CapacityError, partial_trace,
                           symmetric_projector, tensor)
from statdisc.states import (BlochDirection, aligned_mixture,
                             antialigned_mixture, bloch_state, bloch_vector,
                             maximally_mixed, orthogonal_state, qubit_density)

from oracles import (SphereQuadrature, aligned_direction_state,
                     antialigned_direction_state, dicke_basis,
                     permutation_operator, quadrature_average)

thetas = st.floats(0.0, math.pi, allow_nan=False)
phis = st.floats(0.0, 2.0 * math.pi, allow_nan=False, exclude_max=True)


# ------------------------------------------------------------- single kets

def test_bloch_state_at_poles():
    north = bloch_state(BlochDirection(0.0, 0.0))
    assert np.allclose(north, [1.0, 0.0])
    south = bloch_state(BlochDirection(math.pi, 0.0))
    assert np.allclose(south, [0.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(thetas, phis)
def test_bloch_state_pair_is_orthonormal(theta, phi):
    omega = BlochDirection(theta, phi)
    up = bloch_state(omega)
    down = orthogonal_state(omega)
    assert abs(np.vdot(up, up) - 1.0) < 1e-12
    assert abs(np.vdot(down, down) - 1.0) < 1e-12
    assert abs(np.vdot(up, down)) < 1e-12


def test_orthogonal_state_points_to_antipode():
    omega = BlochDirection(0.7, 1.3)
    flipped = BlochDirection(math.pi - 0.7, (1.3 + math.pi) % (2 * math.pi))
    down = orthogonal_state(omega)
    other = bloch_state(flipped)
    # equal up to a global phase
    overlap = abs(np.vdot(down, other))
    assert abs(overlap - 1.0) < 1e-12


def test_bloch_direction_validates_ranges():
    with pytest.raises(ValueError):
        BlochDirection(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochDirection(0.0, 2.0 * math.pi)


# --------------------------------------------------------- mixture closed forms

def test_aligned_mixture_single_qubit_is_maximally_mixed():
    assert np.allclose(aligned_mixture(1).matrix, np.eye(2) / 2, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_aligned_mixture_lives_on_symmetric_subspace(n):
    rho = aligned_mixture(n)
    proj = symmetric_projector(n)
    assert np.allclose(rho.matrix @ proj, rho.matrix, atol=1e-13)
    vals = np.linalg.eigvalsh(rho.matrix)
    nonzero = vals[np.abs(vals) > 1e-12]
    assert len(nonzero) == n + 1
    assert np.allclose(nonzero, 1.0 / (n + 1), atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_aligned_mixture_commutes_with_qubit_permutations(n):
    from itertools import permutations as iperm
    rho = aligned_mixture(n).matrix
    for perm in iperm(range(n)):
        u = permutation_operator(perm)
        assert np.allclose(u @ rho, rho @ u, atol=1e-13)


def test_antialigned_mixture_spectrum():
    vals = np.linalg.eigvalsh(antialigned_mixture().matrix)
    assert np.allclose(sorted(vals), [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-13)


def test_antialigned_mixture_weights_the_singlet():
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    value = singlet.conj() @ antialigned_mixture().matrix @ singlet
    assert abs(value - 0.5) < 1e-13


def test_antialigned_mixture_is_collectively_invariant():
    rng = np.random.default_rng(11)
    sigma = antialigned_mixture().matrix
    for _ in range(100):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(a)
        uu = np.kron(u, u)
        assert np.max(np.abs(uu @ sigma @ uu.conj().T - sigma)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_maximally_mixed_is_product_of_single_qubit_mixtures(n):
    rho = maximally_mixed(1)
    product = rho
    for _ in range(n - 1):
        product = tensor(product, rho)
    assert np.allclose(maximally_mixed(n).matrix, product.matrix, atol=1e-14)


def test_constructors_reject_zero_qubits():
    with pytest.raises(ValueError):
        aligned_mixture(0)
    with pytest.raises(ValueError):
        maximally_mixed(0)


@pytest.mark.parametrize("build", [
    aligned_mixture, maximally_mixed,
    lambda n: aligned_direction_state(BlochDirection(0.3, 1.2), n)])
def test_constructors_stop_at_the_capacity(build):
    assert build(8).n_qubits == 8
    with pytest.raises(CapacityError):
        build(9)


# ---------------------------------------------------------- built once per n

@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_the_hypothesis_states_are_one_read_only_object_per_n(n):
    for build in (aligned_mixture, maximally_mixed):
        rho = build(n)
        assert build(n) is rho
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
    assert antialigned_mixture() is antialigned_mixture()
    with pytest.raises(ValueError):
        antialigned_mixture().matrix[0, 0] = 1.0


@pytest.mark.parametrize("build", [aligned_mixture, maximally_mixed])
def test_a_refused_register_adds_no_cache_entry(build):
    for n in range(1, MAX_QUBITS + 1):
        build(n)
    assert build.cache_info().currsize == MAX_QUBITS
    with pytest.raises(ValueError):
        build(0)
    with pytest.raises(CapacityError):
        build(MAX_QUBITS + 1)
    assert build.cache_info().currsize == MAX_QUBITS


# ------------------------------------------------------------- dicke basis

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dicke_projector_matches_symmetric_projector(n):
    basis = dicke_basis(n)
    assert np.allclose(basis.projector(), symmetric_projector(n), atol=1e-12)


def test_dicke_vectors_have_fixed_excitation_number():
    basis = dicke_basis(3)
    number = np.diag([bin(i).count("1") for i in range(8)]).astype(complex)
    for k in range(4):
        v = basis.vectors[k]
        assert np.allclose(number @ v, k * v, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dicke_vectors_are_permutation_invariant(n):
    from itertools import permutations as iperm
    basis = dicke_basis(n)
    for perm in iperm(range(n)):
        u = permutation_operator(perm)
        for v in basis.vectors:
            assert np.max(np.abs(u @ v - v)) < 1e-12


def test_two_qubit_dicke_middle_vector():
    basis = dicke_basis(2)
    expected = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
    assert np.allclose(basis.vectors[1], expected)


# -------------------------------------------------------------- quadrature

def test_gauss_product_grid_rebuilds_aligned_pair():
    grid = SphereQuadrature.gauss_product(25, 400)
    oracle = quadrature_average(lambda om: aligned_direction_state(om, 2), grid)
    assert np.max(np.abs(oracle.matrix - aligned_mixture(2).matrix)) < 1e-8


def test_gauss_product_grid_rebuilds_antialigned_pair():
    grid = SphereQuadrature.gauss_product(25, 400)
    oracle = quadrature_average(antialigned_direction_state, grid)
    assert np.max(np.abs(oracle.matrix - antialigned_mixture().matrix)) < 1e-8


def test_monte_carlo_average_is_isotropic():
    # statistical scheme: tolerance follows 1/sqrt(nodes), not the grid's 1e-8
    mc = SphereQuadrature.monte_carlo(10_000, seed=42)
    oracle = quadrature_average(lambda om: aligned_direction_state(om, 1), mc)
    assert np.max(np.abs(oracle.matrix - np.eye(2) / 2)) < 5e-2


def test_monte_carlo_is_seed_deterministic():
    a = SphereQuadrature.monte_carlo(50, seed=5)
    b = SphereQuadrature.monte_carlo(50, seed=5)
    assert all(x.theta == y.theta and x.phi == y.phi
               for x, y in zip(a.directions, b.directions))


def test_quadrature_scheme_rejects_zero_nodes():
    with pytest.raises(ValueError):
        SphereQuadrature.monte_carlo(0)
    with pytest.raises(ValueError):
        SphereQuadrature.gauss_product(0, 10)
    with pytest.raises(ValueError):
        SphereQuadrature((), np.array([]))


def test_aligned_pair_marginal_is_maximally_mixed():
    # derived through the quadrature route, then reduced
    grid = SphereQuadrature.gauss_product(10, 40)
    oracle = quadrature_average(lambda om: aligned_direction_state(om, 2), grid)
    reduced = partial_trace(oracle, (0,))
    assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-12


# ----------------------------------------------------------- bloch helpers

@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0, allow_nan=False), thetas, phis)
# a short vector whose direction is off by 2.2e-9 relative, 2.9e-17 absolute
@example(1.2844798029923663e-08, 0.0, 0.0)
def test_qubit_density_roundtrips_bloch_vector(r, theta, phi):
    omega = BlochDirection(theta, phi)
    rho = qubit_density(r, omega)
    vec = bloch_vector(rho)
    assert abs(np.linalg.norm(vec) - r) < 1e-12
    # entries of order one carry the vector to a few 1e-16 absolute, so a
    # bound relative to r would fail on short vectors
    assert np.max(np.abs(vec - r * omega.unit_vector())) < 1e-15


def test_qubit_density_rejects_overlong_bloch_vector():
    with pytest.raises(ValueError):
        qubit_density(1.2, BlochDirection(0.0, 0.0))


def test_bloch_vector_refuses_two_qubits():
    with pytest.raises(ValueError, match="single qubit"):
        bloch_vector(maximally_mixed(2))
