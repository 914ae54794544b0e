"""Class basis, reduced matrices, the lift map, invariance of the subspace."""

import re
import warnings

import numpy as np
import pytest

from simplexwalk import (
    GraphSpec,
    build_adjacency,
    class_basis,
    evolve,
    full_hamiltonian,
    full_initial_state,
    reduced_adjacency,
    reduced_hamiltonian,
    reduced_initial_state,
)
from simplexwalk.graph import _cluster_port

S2 = np.sqrt(2.0)


def test_reduced_hamiltonian_m3_w2_template():
    expected = -1.0 * np.array(
        [
            [1.0, S2, 2.0, 0.0, 0.0, 0.0, 0.0],
            [S2, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0],
            [2.0, 0.0, 0.0, S2, 0.0, 0.0, 0.0],
            [0.0, 0.0, S2, 1.0, 0.0, 2.0, 0.0],
            [0.0, 2.0, 0.0, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, 2.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0],
        ]
    )
    assert np.array_equal(reduced_hamiltonian(GraphSpec(3, 2.0), 1.0), expected)


@pytest.mark.parametrize("M,w,gamma", [(3, 2.0, 1.0), (5, 1.0, 0.4), (1000, 3.0, 0.002)])
def test_marked_entry_is_minus_one_exactly(M, w, gamma):
    assert reduced_hamiltonian(GraphSpec(M, w), gamma)[0, 0] == -1.0


def test_reduced_hamiltonian_rejects_nonpositive_gamma():
    for build in (reduced_hamiltonian, full_hamiltonian):
        for gamma in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                build(GraphSpec(5, 1.0), gamma)


# (3, 0.5, 1.5e308) overflows only in the sqrt(M - 1) entries of the reduced
# generator and nowhere in the full one, whose spectrum still overflows
@pytest.mark.parametrize("M, w, gamma", [(10, 1e308, 2.0), (10, 1e300, 1e9), (1000, 1.0, 1e306),
                                         (3, 0.5, 1.5e308), (4, 2.0, 1e308)])
def test_reduced_hamiltonian_refuses_a_generator_that_overflows(M, w, gamma):
    spec = GraphSpec(M, w)
    # the full generator has M (M + 1) rows: built only for small M
    builds = [reduced_hamiltonian] + [full_hamiltonian] * (M <= 10)
    refusal = re.escape(f"gamma={gamma:g} at w={w:g} overflows")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in builds:
            with pytest.raises(ValueError, match=refusal):
                build(spec, gamma)
            # just below the edge the generator is built, and finite
            assert np.isfinite(build(spec, 0.5 * np.finfo(float).max / (M - 1.0 + w))).all()


def test_stage1_gap_near_closed_form():
    lam = np.linalg.eigvalsh(reduced_hamiltonian(GraphSpec(1000, 1.0), 0.002))
    assert lam[1] - lam[0] == pytest.approx(4 / 1000**1.5, rel=2e-3)


def test_initial_state_m3():
    state = reduced_initial_state(GraphSpec(3, 1.0))
    expected = np.array([1, S2, 1, S2, S2, S2, S2]) / np.sqrt(12.0)
    assert np.allclose(state, expected, atol=1e-15)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("M", [3, 7, 50, 1000, 5_000_000_000])
def test_initial_state_norm(M):
    assert np.linalg.norm(reduced_initial_state(GraphSpec(M, 1.0))) == pytest.approx(
        1.0, abs=1e-14
    )


def test_initial_state_is_reduced_adjacency_eigenvector():
    spec = GraphSpec(1000, 1.0)
    s = reduced_initial_state(spec)
    rayleigh = np.real(np.vdot(s, reduced_adjacency(spec) @ s))
    assert rayleigh == pytest.approx(1000.0, abs=1e-8)


def test_project_lift_round_trip():
    spec = GraphSpec(5, 2.0)
    basis = class_basis(spec)
    rng = np.random.default_rng(7)
    reduced = rng.normal(size=7) + 1j * rng.normal(size=7)
    reduced /= np.linalg.norm(reduced)
    assert np.allclose(basis.matrix @ basis.lift(reduced), reduced, atol=1e-12)
    assert np.linalg.norm(basis.lift(reduced)) == pytest.approx(
        np.linalg.norm(reduced), abs=1e-12
    )


def test_lift_of_marked_unit_vector_is_indicator():
    spec = GraphSpec(4, 1.5)
    basis = class_basis(spec)
    lifted = basis.lift(np.eye(7)[0])
    expected = np.zeros(spec.n_vertices)
    expected[0] = 1.0  # vertex (0, 1), the marked vertex
    assert np.array_equal(lifted, expected)


def test_project_of_equal_superposition_is_initial_state():
    spec = GraphSpec(6, 2.0)
    basis = class_basis(spec)
    assert np.allclose(
        basis.matrix @ full_initial_state(spec),
        reduced_initial_state(spec),
        atol=1e-12,
    )


def test_projected_basis_vector_is_unit_vector():
    basis = class_basis(GraphSpec(5, 1.0))
    assert np.allclose(basis.matrix @ basis.lift(np.eye(7)[1]), np.eye(7)[1], atol=1e-12)


def test_basis_rows_orthonormal():
    basis = class_basis(GraphSpec(6, 3.5))
    gram = basis.matrix @ basis.matrix.T
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-12


def test_dimension_mismatch_rejected():
    basis = class_basis(GraphSpec(5, 1.0))
    with pytest.raises(ValueError):
        basis.lift(np.zeros(30))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_lift_rejects_nonfinite_state(bad):
    basis = class_basis(GraphSpec(5, 1.0))
    state = np.full(7, 0.5 + 0j)
    state[6] = bad
    with pytest.raises(ValueError, match="reduced state must be finite"):
        basis.lift(state)


@pytest.mark.parametrize("M", range(3, 9))
@pytest.mark.parametrize("w", [1.0, 2.0, 3.5])
def test_projection_identity(M, w):
    spec = GraphSpec(M, w)
    basis = class_basis(spec)
    for gamma in (1.0 / M, 2.0 / M):
        projected = basis.matrix @ full_hamiltonian(spec, gamma) @ basis.matrix.T
        assert np.max(np.abs(projected - reduced_hamiltonian(spec, gamma))) <= 1e-10


def test_hamiltonian_commutes_with_lift():
    rng = np.random.default_rng(11)
    for M in (3, 4, 5, 6):
        spec = GraphSpec(M, 2.0)
        basis = class_basis(spec)
        ham_full = full_hamiltonian(spec, 1.0 / M)
        ham_red = reduced_hamiltonian(spec, 1.0 / M)
        reduced = rng.normal(size=7) + 1j * rng.normal(size=7)
        reduced /= np.linalg.norm(reduced)
        assert np.allclose(
            ham_full @ basis.lift(reduced), basis.lift(ham_red @ reduced), atol=1e-8
        )


@pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
def test_evolution_never_leaks_out_of_subspace(t):
    rng = np.random.default_rng(3)
    for M in (3, 5):
        spec = GraphSpec(M, 2.0)
        basis = class_basis(spec)
        ham_full = full_hamiltonian(spec, 2.0 / M)
        reduced = rng.normal(size=7) + 1j * rng.normal(size=7)
        reduced /= np.linalg.norm(reduced)
        evolved = evolve(ham_full, basis.lift(reduced), t)
        residual = evolved - basis.matrix.T @ (basis.matrix @ evolved)
        assert np.linalg.norm(residual) <= 1e-8


def test_reduced_hamiltonian_identical_for_every_marked_vertex():
    # Vertex-transitivity, on which fixing the marked vertex at dense index 0
    # and connectivity_and_norm rest: for each vertex v = (i0, j0), relabel
    # the clusters so that i0 -> 0 and j0 -> 1.  The permutation P this
    # induces on vertices keeps A exactly and moves the generator marked at v
    # to the one marked at 0, which the class basis reduces as usual.
    spec = GraphSpec(4, 2.5)
    M, n, gamma = spec.M, spec.n_vertices, 0.5
    adj = build_adjacency(spec)
    cluster, port = _cluster_port(M)
    basis = class_basis(spec).matrix
    reference = reduced_hamiltonian(spec, gamma)
    for v in range(n):
        i0, j0 = cluster[v], port[v]
        relabel = np.array([i0, j0] + [k for k in range(M + 1) if k not in (i0, j0)])
        relabel = np.argsort(relabel)  # relabel[old cluster] = new cluster
        i, j = relabel[cluster], relabel[port]
        perm = np.zeros((n, n))
        perm[i * M + j - (j > i), np.arange(n)] = 1.0
        assert np.array_equal(perm[:, v], np.eye(n)[0])
        assert np.array_equal(perm @ adj @ perm.T, adj)
        ham_v = -gamma * adj
        ham_v[v, v] -= 1.0
        reduced = (basis @ perm) @ ham_v @ (basis @ perm).T
        assert np.max(np.abs(reduced - reference)) <= 1e-10
