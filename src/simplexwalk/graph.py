"""Weighted simplex-of-complete-graphs construction and connectivity measures.

The graph family has M + 1 clusters, each a complete graph on M vertices, for
N = M(M + 1) vertices in total.  Vertex (i, j) is the member of cluster i that
links to cluster j; the matching edge (i, j) <-> (j, i) carries weight w while
every intra-cluster edge carries weight 1.  Each vertex therefore has weighted
degree M - 1 + w, and the graph is vertex-transitive.

Relative to a marked vertex the vertices fall into seven classes, tagged
``a`` through ``g``:

    a  the marked vertex itself
    b  the other M - 1 vertices in the marked cluster
    c  the weight-w partner of the marked vertex
    d  the other M - 1 vertices in c's cluster
    e  the weight-w partners of the b vertices
    f  the weight-w partners of the d vertices
    g  everything else ((M - 1)(M - 2) vertices)

Matrices are plain dense float64 arrays, constructed exactly symmetric.  Full
N x N construction is intended for small M (verification runs at M <= 30);
cost grows as M^4 in memory and M^6 in eigensolve time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

CLASS_TAGS = ("a", "b", "c", "d", "e", "f", "g")

#: Census keys are (tag_lo, tag_hi, tier) with tier "w" for inter-cluster
#: edges and "1" for intra-cluster edges.  The same twelve keys exist for
#: every M >= 3 (some with count 0), so censuses compare by dict equality.
CENSUS_KEYS = (
    ("a", "c", "w"),
    ("b", "e", "w"),
    ("d", "f", "w"),
    ("g", "g", "w"),
    ("a", "b", "1"),
    ("b", "b", "1"),
    ("c", "d", "1"),
    ("d", "d", "1"),
    ("e", "f", "1"),
    ("e", "g", "1"),
    ("f", "g", "1"),
    ("g", "g", "1"),
)


@dataclass(frozen=True)
class GraphSpec:
    """Cluster size M (>= 3) and finite inter-cluster edge weight w (> 0)."""

    M: int
    w: float

    def __post_init__(self) -> None:
        if not isinstance(self.M, (int, np.integer)) or self.M < 3:
            raise ValueError("M must be an integer >= 3")
        # a numpy integer is stored as a Python int, so n_vertices cannot wrap
        object.__setattr__(self, "M", int(self.M))
        if not (self.w > 0 and math.isfinite(self.w)):
            raise ValueError("w must be finite and > 0")

    @property
    def n_vertices(self) -> int:
        return self.M * (self.M + 1)


@dataclass(frozen=True, order=True)
class VertexId:
    """Vertex (cluster, port): cluster it belongs to, cluster it links to."""

    cluster: int
    port: int

    def __post_init__(self) -> None:
        if self.cluster < 0 or self.port < 0:
            raise ValueError("cluster and port must be nonnegative")
        if self.cluster == self.port:
            raise ValueError("port must differ from cluster")

    def index(self, M: int) -> int:
        """Dense index: cluster * M + (port, shifted down past the gap at port == cluster)."""
        if self.cluster > M or self.port > M:
            raise ValueError(f"vertex {self} out of range for M={M}")
        return self.cluster * M + (self.port if self.port < self.cluster else self.port - 1)

    @classmethod
    def from_index(cls, M: int, idx: int) -> "VertexId":
        if not 0 <= idx < M * (M + 1):
            raise ValueError(f"index {idx} out of range for M={M}")
        cluster, rest = divmod(idx, M)
        return cls(cluster, rest if rest < cluster else rest + 1)


#: Canonical marked vertex.  Vertex-transitivity makes the choice irrelevant;
#: fixing it keeps all derived outputs deterministic.
DEFAULT_MARKED = VertexId(0, 1)


def vertices(M: int) -> Iterator[VertexId]:
    """All N = M(M + 1) vertices in dense-index order."""
    for idx in range(M * (M + 1)):
        yield VertexId.from_index(M, idx)


def class_sizes(M: int) -> dict[str, int]:
    """Closed-form size of each vertex class."""
    return {
        "a": 1,
        "b": M - 1,
        "c": 1,
        "d": M - 1,
        "e": M - 1,
        "f": M - 1,
        "g": (M - 1) * (M - 2),
    }


def build_adjacency(spec: GraphSpec) -> np.ndarray:
    """Dense N x N adjacency matrix of the weighted simplex of complete graphs.

    Intra-cluster entries are 1, the inter-cluster matching entries are w,
    everything else (including the diagonal) is 0.  The result is exactly
    symmetric by construction.
    """
    M, w = spec.M, spec.w
    n = spec.n_vertices
    adj = np.zeros((n, n))
    for c in range(M + 1):
        block = slice(c * M, (c + 1) * M)
        adj[block, block] = 1.0
    np.fill_diagonal(adj, 0.0)
    for i in range(M + 1):
        for j in range(i + 1, M + 1):
            x = VertexId(i, j).index(M)
            y = VertexId(j, i).index(M)
            adj[x, y] = w
            adj[y, x] = w
    return adj


def classify_vertices(
    spec: GraphSpec, marked: VertexId | None = None
) -> dict[VertexId, str]:
    """Assign every vertex its class tag relative to the marked vertex."""
    if marked is None:
        marked = DEFAULT_MARKED
    marked.index(spec.M)  # range check
    i0, j0 = marked.cluster, marked.port
    classes: dict[VertexId, str] = {}
    for v in vertices(spec.M):
        if v == marked:
            tag = "a"
        elif v.cluster == j0 and v.port == i0:
            tag = "c"
        elif v.cluster == i0:
            tag = "b"
        elif v.cluster == j0:
            tag = "d"
        elif v.port == i0:
            tag = "e"
        elif v.port == j0:
            tag = "f"
        else:
            tag = "g"
        classes[v] = tag
    return classes


def edge_census(
    spec: GraphSpec, classes: dict[VertexId, str]
) -> dict[tuple[str, str, str], int]:
    """Count edges by the class pair they connect and their weight tier.

    Enumerates the actual edge structure (not matrix values), so the "w" and
    "1" tiers stay distinct even when w == 1.
    """
    if len(classes) != spec.n_vertices:
        raise ValueError("classes must cover all vertices")
    counts = {key: 0 for key in CENSUS_KEYS}

    def add(x: VertexId, y: VertexId, tier: str) -> None:
        lo, hi = sorted((classes[x], classes[y]))
        counts[(lo, hi, tier)] = counts.get((lo, hi, tier), 0) + 1

    M = spec.M
    for i in range(M + 1):
        members = [VertexId(i, j) for j in range(M + 1) if j != i]
        for p in range(M):
            for q in range(p + 1, M):
                add(members[p], members[q], "1")
        for j in range(i + 1, M + 1):
            add(VertexId(i, j), VertexId(j, i), "w")
    return counts


def laplacian(adj: np.ndarray) -> np.ndarray:
    """Graph Laplacian (weighted-degree diagonal minus adjacency)."""
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric")
    if np.any(adj < 0):
        raise ValueError("adjacency entries must be nonnegative")
    if np.any(np.diag(adj) != 0):
        raise ValueError("adjacency diagonal must be zero")
    lap = -adj.copy()
    np.fill_diagonal(lap, adj.sum(axis=1))
    return lap


def algebraic_connectivity(spec: GraphSpec) -> float:
    """Second-smallest eigenvalue of the graph Laplacian, computed densely."""
    lam = np.linalg.eigvalsh(laplacian(build_adjacency(spec)))
    return float(lam[1])
