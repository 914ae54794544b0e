"""Graph construction, vertex classification, edge census, connectivity."""

import math
from collections import Counter

import numpy as np
import pytest

from simplexwalk import (
    CLASS_TAGS,
    GraphSpec,
    algebraic_connectivity,
    build_adjacency,
    class_sizes,
    classify_vertices,
    edge_census,
    laplacian,
)
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


def test_classify_m5_against_adjacency_walk():
    # Oracle: reconstruct the classes purely by walking the adjacency matrix
    # outward from the marked vertex (w = 2 so the two edge kinds differ).
    spec = GraphSpec(5, 2.0)
    marked = 0  # vertex (0, 1)
    adj = build_adjacency(spec)
    n = spec.n_vertices

    def heavy(i):
        return {j for j in range(n) if adj[i, j] == 2.0}

    def light(i):
        return {j for j in range(n) if adj[i, j] == 1.0}

    a = marked
    (c,) = heavy(a)
    b = light(a)
    d = light(c)
    e = {j for i in b for j in heavy(i)}
    f = {j for i in d for j in heavy(i)}
    g = set(range(n)) - {a, c} - b - d - e - f
    expected = {a: "a", c: "c"}
    for members, tag in ((b, "b"), (d, "d"), (e, "e"), (f, "f"), (g, "g")):
        expected.update({i: tag for i in members})

    classes = classify_vertices(spec, marked)
    assert {i: CLASS_TAGS[k] for i, k in enumerate(classes)} == expected
    # c is the unique weight-w neighbor of the marked vertex: (1, 0), index 5
    assert CLASS_TAGS[classes[5]] == "c"
    # e is the vertices (k, 0) for k = 2..5, index 5k
    assert set(np.flatnonzero(classes == CLASS_TAGS.index("e"))) == {5 * k for k in range(2, 6)}


def test_class_size_multiset_independent_of_marked_vertex():
    spec = GraphSpec(4, 2.0)
    for marked in range(spec.n_vertices):
        sizes = Counter(CLASS_TAGS[k] for k in classify_vertices(spec, marked))
        assert dict(sizes) == class_sizes(4)


def test_census_m5_weighted_row():
    spec = GraphSpec(5, 3.0)
    census = edge_census(spec, classify_vertices(spec))
    assert census[("a", "c", "w")] == 1
    assert census[("b", "e", "w")] == 4
    assert census[("d", "f", "w")] == 4
    assert census[("g", "g", "w")] == 6


def test_census_m5_unit_row():
    spec = GraphSpec(5, 3.0)
    census = edge_census(spec, classify_vertices(spec))
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
    census = edge_census(spec, classify_vertices(spec))
    weighted = sum(v for k, v in census.items() if k[2] == "w")
    unit = sum(v for k, v in census.items() if k[2] == "1")
    assert weighted == M * (M + 1) // 2
    assert unit == M * (M + 1) * (M - 1) // 2
    assert weighted + unit == M * M * (M + 1) // 2


def test_laplacian_diagonal_and_row_sums():
    spec = GraphSpec(3, 2.0)
    lap = laplacian(build_adjacency(spec))
    assert np.all(np.diag(lap) == 4.0)
    ones = np.ones(spec.n_vertices)
    assert np.max(np.abs(lap @ ones)) <= 1e-10
    assert np.linalg.eigvalsh(lap)[0] == pytest.approx(0.0, abs=1e-10)


def test_laplacian_rejects_bad_input():
    with pytest.raises(ValueError):
        laplacian(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        laplacian(np.array([[1.0, 1.0], [1.0, 0.0]]))


def test_laplacian_second_eigenvalue_m4_w2():
    lam = np.linalg.eigvalsh(laplacian(build_adjacency(GraphSpec(4, 2.0))))
    # closed form (M + 2w - sqrt(M^2 - 4w + 4w^2)) / 2 at M=4, w=2
    assert lam[1] == pytest.approx(1.5505102572168221, abs=1e-9)


def test_algebraic_connectivity_values():
    assert algebraic_connectivity(GraphSpec(4, 2.0)) == pytest.approx(
        1.5505102572168221, abs=1e-8
    )
    # the closed form collapses to exactly 1 whenever w = 1
    assert algebraic_connectivity(GraphSpec(10, 1.0)) == pytest.approx(1.0, abs=1e-8)
