"""Graph construction, vertex classification, edge census, connectivity."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwalk import (
    CLASS_TAGS,
    GraphSpec,
    algebraic_connectivity_formula,
    build_adjacency,
    class_sizes,
    classify_vertices,
    connectivity_and_norm,
    edge_census,
    reduced_adjacency,
)
from simplexwalk import graph
from simplexwalk.graph import _cluster_port, _partner


def test_spec_validation():
    with pytest.raises(ValueError):
        GraphSpec(2, 1.0)
    with pytest.raises(ValueError):
        GraphSpec(5, 0.0)
    with pytest.raises(ValueError):
        GraphSpec(5, -2.0)
    with pytest.raises(ValueError):
        GraphSpec(5, float("inf"))
    with pytest.raises(ValueError):
        GraphSpec(5.0, 1.0)
    assert GraphSpec(3, 2.5).n_vertices == 12
    spec = GraphSpec(np.int64(1000), 1.0)
    assert spec == GraphSpec(1000, 1.0)
    assert type(spec.M) is int


def test_spec_refuses_m_beyond_float64_integers():
    # 2**53 is the largest integer that float64 holds exactly
    assert GraphSpec(2**53, 1.0).M == 2**53
    for M in (2**53 + 1, np.uint64(2**53 + 1), 10**320):
        with pytest.raises(ValueError, match=r"M <= 2\*\*53"):
            GraphSpec(M, 1.0)


def test_cluster_port_index_arithmetic():
    M = 6
    cluster, port = _cluster_port(M)
    assert len(cluster) == M * (M + 1)
    assert np.all(cluster != port)
    # each cluster's M ports are the other M clusters, in ascending order
    for i in range(M + 1):
        assert list(port[cluster == i]) == [j for j in range(M + 1) if j != i]
    idx = np.arange(M * (M + 1))
    assert np.array_equal(cluster * M + port - (port > cluster), idx)


def test_partner_is_fixed_point_free_involution_into_port_cluster():
    M = 6
    cluster, port = _cluster_port(M)
    partner = _partner(M)
    idx = np.arange(M * (M + 1))
    assert np.array_equal(np.sort(partner), idx)
    assert np.all(partner != idx)
    assert np.array_equal(partner[partner], idx)
    assert np.array_equal(cluster[partner], port)
    assert np.array_equal(port[partner], cluster)


def test_adjacency_m3_w2_edge_counts():
    adj = build_adjacency(GraphSpec(3, 2.0))
    assert adj.shape == (12, 12)
    upper = adj[np.triu_indices(12, k=1)]
    assert np.count_nonzero(upper) == 18
    assert np.count_nonzero(upper == 2.0) == 6
    assert np.count_nonzero(upper == 1.0) == 12


def test_adjacency_w1_recovers_unweighted_graph():
    adj = build_adjacency(GraphSpec(3, 1.0))
    assert np.all(adj.sum(axis=1) == 3.0)
    assert set(np.unique(adj)) == {0.0, 1.0}


@pytest.mark.parametrize("M,w", [(3, 2.0), (4, 2.5), (6, 0.5), (8, 3.5)])
def test_weighted_degree_exact(M, w):
    adj = build_adjacency(GraphSpec(M, w))
    assert np.array_equal(adj, adj.T)
    assert np.all(adj.sum(axis=1) == M - 1 + w)
    assert np.all(adj.sum(axis=1) == GraphSpec(M, w).degree)


def test_largest_adjacency_eigenvalue():
    adj = build_adjacency(GraphSpec(4, 2.5))
    assert np.linalg.eigvalsh(adj)[-1] == pytest.approx(5.5, abs=1e-10)


@pytest.mark.parametrize("M,w", [(3, 1.0), (5, 2.0), (8, 3.5)])
def test_equal_superposition_is_adjacency_eigenvector(M, w):
    spec = GraphSpec(M, w)
    adj = build_adjacency(spec)
    s = np.full(spec.n_vertices, 1.0 / math.sqrt(spec.n_vertices))
    assert np.linalg.norm(adj @ s - (M + w - 1) * s) <= 1e-10


def test_class_sizes_m3():
    sizes = Counter(CLASS_TAGS[k] for k in classify_vertices(GraphSpec(3, 2.0)))
    assert dict(sizes) == {"a": 1, "b": 2, "c": 1, "d": 2, "e": 2, "f": 2, "g": 2}
    assert dict(sizes) == class_sizes(3)


def _classes_by_adjacency_walk(adj, a):
    # Oracle: reconstruct the classes purely by walking the adjacency matrix
    # outward from vertex a (w = 2 so the two edge kinds differ).
    n = adj.shape[0]

    def heavy(i):
        return {j for j in range(n) if adj[i, j] == 2.0}

    def light(i):
        return {j for j in range(n) if adj[i, j] == 1.0}

    (c,) = heavy(a)
    b = light(a)
    d = light(c)
    e = {j for i in b for j in heavy(i)}
    f = {j for i in d for j in heavy(i)}
    g = set(range(n)) - {a, c} - b - d - e - f
    classes = {a: "a", c: "c"}
    for members, tag in ((b, "b"), (d, "d"), (e, "e"), (f, "f"), (g, "g")):
        classes.update({i: tag for i in members})
    return classes


def test_classify_m5_against_adjacency_walk():
    spec = GraphSpec(5, 2.0)
    expected = _classes_by_adjacency_walk(build_adjacency(spec), 0)  # vertex (0, 1)
    classes = classify_vertices(spec)
    assert {i: CLASS_TAGS[k] for i, k in enumerate(classes)} == expected
    # c is the unique weight-w neighbor of the marked vertex: (1, 0), index 5
    assert CLASS_TAGS[classes[5]] == "c"
    # e is the vertices (k, 0) for k = 2..5, index 5k
    assert set(np.flatnonzero(classes == CLASS_TAGS.index("e"))) == {5 * k for k in range(2, 6)}


def test_class_size_multiset_independent_of_marked_vertex():
    # The marked vertex is fixed at index 0; vertex-transitivity makes that
    # choice immaterial, so walking out from any vertex gives the same sizes.
    spec = GraphSpec(4, 2.0)
    adj = build_adjacency(spec)
    for marked in range(spec.n_vertices):
        sizes = Counter(_classes_by_adjacency_walk(adj, marked).values())
        assert dict(sizes) == class_sizes(4)


def test_census_m5_weighted_row():
    spec = GraphSpec(5, 3.0)
    census = edge_census(spec)
    assert census[("a", "c", "w")] == 1
    assert census[("b", "e", "w")] == 4
    assert census[("d", "f", "w")] == 4
    assert census[("g", "g", "w")] == 6


def test_census_m5_unit_row():
    spec = GraphSpec(5, 3.0)
    census = edge_census(spec)
    unit = {k: v for k, v in census.items() if k[2] == "1"}
    assert unit == {
        ("a", "b", "1"): 4,
        ("b", "b", "1"): 6,
        ("c", "d", "1"): 4,
        ("d", "d", "1"): 6,
        ("e", "f", "1"): 4,
        ("e", "g", "1"): 12,
        ("f", "g", "1"): 12,
        ("g", "g", "1"): 12,
    }


@pytest.mark.parametrize("M", range(3, 13))
def test_census_sum_identities(M):
    spec = GraphSpec(M, 2.0)
    census = edge_census(spec)
    weighted = sum(v for k, v in census.items() if k[2] == "w")
    unit = sum(v for k, v in census.items() if k[2] == "1")
    assert weighted == M * (M + 1) // 2
    assert unit == M * (M + 1) * (M - 1) // 2
    assert weighted + unit == M * M * (M + 1) // 2


def test_laplacian_second_eigenvalue_m4_w2():
    adj = build_adjacency(GraphSpec(4, 2.0))
    lam = np.linalg.eigvalsh(np.diag(adj.sum(1)) - adj)
    # closed form (M + 2w - sqrt(M^2 - 4w + 4w^2)) / 2 at M=4, w=2
    assert lam[1] == pytest.approx(1.5505102572168221, abs=1e-9)


def test_algebraic_connectivity_values():
    assert connectivity_and_norm(GraphSpec(4, 2.0))[0] == pytest.approx(
        1.5505102572168221, abs=1e-9
    )
    # the closed form collapses to exactly 1 whenever w = 1
    assert connectivity_and_norm(GraphSpec(10, 1.0))[0] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("M", range(3, 13))
@pytest.mark.parametrize("w", [0.5, 1.0, 2.0, 5.0])
def test_algebraic_connectivity_matches_laplacian_definition(M, w):
    adj = build_adjacency(GraphSpec(M, w))
    lam1 = np.linalg.eigvalsh(np.diag(adj.sum(1)) - adj)[1]
    assert abs(connectivity_and_norm(GraphSpec(M, w))[0] - lam1) <= 1e-12


_EPS = np.finfo(float).eps


@pytest.mark.parametrize("M", [3, 10, 30, 100, 300])
@pytest.mark.parametrize("w", [1e-9, 1e-6, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e6, 1e9])
def test_connectivity_and_norm_matches_closed_forms(M, w):
    lam1, op_norm = connectivity_and_norm(GraphSpec(M, w))
    exact_norm = M - 1 + w
    assert abs(lam1 - algebraic_connectivity_formula(M, w)) <= 50 * _EPS * exact_norm
    assert abs(op_norm - exact_norm) <= 50 * _EPS * exact_norm


@pytest.mark.parametrize("M", [3, 10])
@pytest.mark.parametrize("w", [1e16, 1e300])
def test_connectivity_and_norm_keeps_lambda_max_apart_at_huge_w(M, w):
    # lambda_max - lambda_2 = lambda1 ~ (M + 1) / 2 is below rounding of ||A||
    # here; the two largest eigenvalues of A must still not merge into a
    # lambda1 of order ||A||
    lam1, op_norm = connectivity_and_norm(GraphSpec(M, w))
    assert op_norm == pytest.approx(M - 1 + w, rel=1e-15)
    assert abs(lam1 - (M + 1) / 2) <= 50 * _EPS * op_norm


@pytest.mark.parametrize("M, w", [(100, 0.5), (300, 1e6)])
def test_connectivity_and_norm_is_deterministic(M, w):
    spec = GraphSpec(M, w)
    assert connectivity_and_norm(spec) == connectivity_and_norm(spec)


def test_connectivity_and_norm_is_one_7x7_eigvalsh(monkeypatch):
    # no N x N array, no index arrays, no eigh: one eigvalsh of the reduced Laplacian
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(matrix, *args, **kwargs):
        sizes.append(np.shape(matrix))
        return eigvalsh(matrix, *args, **kwargs)

    for name in ("build_adjacency", "_partner", "_cluster_port"):
        monkeypatch.setattr(graph, name, None)
    monkeypatch.setattr(np.linalg, "eigh", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for M, w in [(6, 2.5), (1001, 2.0), (10**6, 2.0), (2**53, 1e-3)]:
        sizes.clear()
        lam1, op_norm = connectivity_and_norm(GraphSpec(M, w))
        assert abs(lam1 - algebraic_connectivity_formula(M, w)) <= 15 * _EPS * op_norm
        assert sizes == [(7, 7)]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 14), st.floats(math.log10(1e-3), math.log10(1e3)))
def test_quotient_spectrum_is_the_adjacency_spectrum(M, log10_w):
    # vertex-transitivity puts every distinct eigenvalue of A in the class
    # quotient, and an A-invariant subspace holds no other
    spec = GraphSpec(M, 10.0**log10_w)
    full = np.linalg.eigvalsh(build_adjacency(spec))
    quotient = np.linalg.eigvalsh(reduced_adjacency(spec))
    distance = np.abs(full[:, None] - quotient[None, :])
    tol = 1e-10 * (M + spec.w)
    assert np.all(distance.min(axis=1) <= tol)
    assert np.all(distance.min(axis=0) <= tol)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(math.log(3), 53 * math.log(2)),
    st.floats(math.log10(1e-12), math.log10(1e15)),
)
def test_connectivity_and_norm_is_within_15_eps_of_mpmath(log_m, log10_w):
    # the CLI refuses a lambda1 below 1000 times this bound
    mpmath = pytest.importorskip("mpmath")
    M = min(max(round(math.exp(log_m)), 3), 2**53)
    w = 10.0**log10_w
    lam1, op_norm = connectivity_and_norm(GraphSpec(M, w))
    with mpmath.workdps(50):
        m, x = mpmath.mpf(M), mpmath.mpf(w)
        exact_lam1 = 2 * x * (m + 1) / (m + 2 * x + mpmath.sqrt(m * m - 4 * x + 4 * x * x))
        exact_norm = m - 1 + x
        bound = 15 * _EPS * exact_norm
        assert abs(lam1 - exact_lam1) <= bound, (M, w)
        assert abs(op_norm - exact_norm) <= bound, (M, w)
