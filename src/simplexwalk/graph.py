"""Weighted simplex-of-complete-graphs construction, classes and edge census.

The graph family has M + 1 clusters, each a complete graph on M vertices, for
N = M(M + 1) vertices in total.  Vertex (i, j) is the member of cluster i that
links to cluster j; the matching edge (i, j) <-> (j, i) carries weight w while
every intra-cluster edge carries weight 1.  Each vertex therefore has weighted
degree M - 1 + w, and the graph is vertex-transitive.

Vertices are numbered by one dense index, idx = i * M + j - (j > i) for
vertex (i, j); conversely ``i, r = divmod(idx, M)`` and ``j = r + (r >= i)``.
Every structure below is built from these index arrays.  The marked vertex
is dense index 0, vertex (0, 1); vertex-transitivity makes the choice
immaterial, and fixing it keeps every derived output deterministic.

Relative to the marked vertex the vertices fall into seven classes, tagged
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
cost grows as M^4 in memory and M^6 in eigensolve time.  The connectivity
measures need no N x N array: ``subspace`` reads them off the 7 x 7 class
quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Cluster size M (3 <= M <= 2**53) and finite inter-cluster edge weight
    w (> 0).  2**53 is the largest integer that float64 holds exactly, and
    the closed forms convert M to float."""

    M: int
    w: float

    def __post_init__(self) -> None:
        if not isinstance(self.M, (int, np.integer)) or not 3 <= self.M <= 2**53:
            raise ValueError("M must be an integer with 3 <= M <= 2**53")
        # a numpy integer is stored as a Python int, so n_vertices cannot wrap
        object.__setattr__(self, "M", int(self.M))
        if not (self.w > 0 and math.isfinite(self.w)):
            raise ValueError("w must be finite and > 0")

    @property
    def n_vertices(self) -> int:
        return self.M * (self.M + 1)

    @property
    def degree(self) -> float:
        """Weighted degree M - 1 + w of every vertex, which is also ||A||."""
        return self.M - 1 + self.w


def _cluster_port(M: int) -> tuple[np.ndarray, np.ndarray]:
    """Cluster and port of every dense index, as two arrays of length N."""
    cluster, rest = np.divmod(np.arange(M * (M + 1)), M)
    return cluster, rest + (rest >= cluster)


def _partner(M: int) -> np.ndarray:
    """Dense index of each vertex's weight-w partner: (port, cluster)."""
    cluster, port = _cluster_port(M)
    return port * M + cluster - (cluster > port)


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
    M = spec.M
    adj = np.kron(np.eye(M + 1), np.ones((M, M)))
    np.fill_diagonal(adj, 0.0)
    adj[np.arange(spec.n_vertices), _partner(M)] = spec.w
    return adj


def classify_vertices(spec: GraphSpec) -> np.ndarray:
    """Class of every vertex relative to the marked vertex (0, 1), as an int
    array of length N indexing CLASS_TAGS."""
    cluster, port = _cluster_port(spec.M)
    # in CLASS_TAGS order; np.select takes the first predicate that holds
    predicates = [
        np.arange(spec.n_vertices) == 0,
        cluster == 0,
        (cluster == 1) & (port == 0),
        cluster == 1,
        port == 0,
        port == 1,
    ]
    return np.select(predicates, range(6), default=6)


def edge_census(spec: GraphSpec, classes: np.ndarray) -> dict[tuple[str, str, str], int]:
    """Count edges by the class pair they connect and their weight tier.

    ``classes`` is the output of :func:`classify_vertices`.  Enumerates the
    actual edge structure (not matrix values), so the "w" and "1" tiers stay
    distinct even when w == 1.
    """
    classes = np.asarray(classes)
    if (
        classes.shape != (spec.n_vertices,)
        or not np.issubdtype(classes.dtype, np.integer)
        or not np.all((classes >= 0) & (classes < len(CLASS_TAGS)))
    ):
        raise ValueError("classes must hold one CLASS_TAGS index per vertex")
    M = spec.M
    p, q = np.triu_indices(M, 1)
    base = M * np.arange(M + 1)[:, None]
    partner = _partner(M)
    first = np.flatnonzero(np.arange(spec.n_vertices) < partner)
    edges = {
        "1": ((base + p).ravel(), (base + q).ravel()),
        "w": (first, partner[first]),
    }
    counts = {key: 0 for key in CENSUS_KEYS}
    for tier, (x, y) in edges.items():
        lo = np.minimum(classes[x], classes[y])
        hi = np.maximum(classes[x], classes[y])
        tally = np.bincount(7 * lo + hi, minlength=49)
        for code in np.flatnonzero(tally):
            lo_tag, hi_tag = divmod(int(code), 7)
            counts[(CLASS_TAGS[lo_tag], CLASS_TAGS[hi_tag], tier)] = int(tally[code])
    return counts
