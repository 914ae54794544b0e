"""Class basis, reduced matrices, lift/project maps, invariance of the subspace."""

import numpy as np
import pytest

from simplexwalk import (
    GraphSpec,
    class_basis,
    classify_vertices,
    evolve,
    full_hamiltonian,
    full_initial_state,
    reduced_adjacency,
    reduced_hamiltonian,
    reduced_initial_state,
)

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
    assert np.allclose(basis.project(basis.lift(reduced)), reduced, atol=1e-12)
    assert np.linalg.norm(basis.lift(reduced)) == pytest.approx(
        np.linalg.norm(reduced), abs=1e-12
    )


def test_lift_of_marked_unit_vector_is_indicator():
    spec = GraphSpec(4, 1.5)
    basis = class_basis(spec)
    lifted = basis.lift(np.eye(7)[0])
    expected = np.zeros(spec.n_vertices)
    expected[0] = 1.0  # vertex (0, 1), the default marked vertex
    assert np.array_equal(lifted, expected)


def test_project_of_equal_superposition_is_initial_state():
    spec = GraphSpec(6, 2.0)
    basis = class_basis(spec)
    assert np.allclose(
        basis.project(full_initial_state(spec)),
        reduced_initial_state(spec),
        atol=1e-12,
    )


def test_projected_basis_vector_is_unit_vector():
    basis = class_basis(GraphSpec(5, 1.0))
    assert np.allclose(basis.project(basis.lift(np.eye(7)[1])), np.eye(7)[1], atol=1e-12)


def test_basis_rows_orthonormal():
    basis = class_basis(GraphSpec(6, 3.5))
    gram = basis.matrix @ basis.matrix.T
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-12


def test_dimension_mismatch_rejected():
    basis = class_basis(GraphSpec(5, 1.0))
    with pytest.raises(ValueError):
        basis.project(np.zeros(7))
    with pytest.raises(ValueError):
        basis.lift(np.zeros(30))


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
    spec = GraphSpec(4, 2.5)
    gamma = 0.5
    reference = reduced_hamiltonian(spec, gamma)
    for marked in range(spec.n_vertices):
        basis = class_basis(spec, marked)
        projected = basis.matrix @ full_hamiltonian(spec, gamma, marked) @ basis.matrix.T
        assert np.max(np.abs(projected - reference)) <= 1e-10


def test_marked_must_be_a_vertex_index():
    spec = GraphSpec(4, 2.5)
    builds = (
        lambda marked: classify_vertices(spec, marked),
        lambda marked: class_basis(spec, marked),
        lambda marked: full_hamiltonian(spec, 0.5, marked),
    )
    for build in builds:
        for marked in (-1, spec.n_vertices, 1.5):
            with pytest.raises(ValueError, match="marked"):
                build(marked)
    assert class_basis(spec, np.int64(19)).marked == 19
