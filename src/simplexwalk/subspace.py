"""Reduction of the search problem to its 7-dimensional invariant subspace.

Uniform superpositions over the seven vertex classes span a subspace that the
search Hamiltonian H = -gamma * A - |marked><marked| never leaves, so the
dynamics at any M collapses to a 7 x 7 problem.  The graph's connectivity
and norm do too: the quotient holds every distinct eigenvalue of A.  Basis
order is (a, b, c, d, e, f, g) everywhere.

The reduced matrices are built from their closed-form template rather than by
numerically projecting the full matrix; the projection identity is then a
test, not a construction, which catches labeling bugs.  Hamiltonians are real
symmetric; states are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import CLASS_TAGS, GraphSpec, build_adjacency, class_sizes, classify_vertices


@dataclass(frozen=True, eq=False)
class ReducedBasis:
    """Orthonormal class basis: row k of ``matrix`` is the uniform superposition
    over class CLASS_TAGS[k], as a full-space row vector.  ``matrix`` maps a
    full-space state to its seven class components."""

    matrix: np.ndarray  # shape (7, N)

    def lift(self, reduced_state: np.ndarray) -> np.ndarray:
        """Adjoint of ``matrix``; isometric embedding into the full space."""
        reduced_state = np.asarray(reduced_state)
        if reduced_state.shape != (7,):
            raise ValueError("reduced state has wrong dimension")
        if not np.isfinite(reduced_state).all():
            raise ValueError("reduced state must be finite")
        return self.matrix.T @ reduced_state


def class_basis(spec: GraphSpec) -> ReducedBasis:
    classes = classify_vertices(spec)
    mat = np.zeros((7, spec.n_vertices))
    mat[classes, np.arange(spec.n_vertices)] = 1.0
    mat /= np.sqrt(mat.sum(axis=1, keepdims=True))
    return ReducedBasis(matrix=mat)


def reduced_adjacency(spec: GraphSpec) -> np.ndarray:
    """The adjacency matrix projected onto the class basis (7 x 7, symmetric).

    With s1 = sqrt(M - 1) and s2 = sqrt(M - 2), the template is::

        [[ 0,   s1,  w,   0,   0,   0,   0      ],
         [ s1,  M-2, 0,   0,   w,   0,   0      ],
         [ w,   0,   0,   s1,  0,   0,   0      ],
         [ 0,   0,   s1,  M-2, 0,   w,   0      ],
         [ 0,   w,   0,   0,   0,   1,   s2     ],
         [ 0,   0,   0,   w,   1,   0,   s2     ],
         [ 0,   0,   0,   0,   s2,  s2,  M-3+w  ]]
    """
    M, w = spec.M, spec.w
    s1 = np.sqrt(M - 1.0)
    s2 = np.sqrt(M - 2.0)
    return np.array(
        [
            [0.0, s1, w, 0.0, 0.0, 0.0, 0.0],
            [s1, M - 2.0, 0.0, 0.0, w, 0.0, 0.0],
            [w, 0.0, 0.0, s1, 0.0, 0.0, 0.0],
            [0.0, 0.0, s1, M - 2.0, 0.0, w, 0.0],
            [0.0, w, 0.0, 0.0, 0.0, 1.0, s2],
            [0.0, 0.0, 0.0, w, 1.0, 0.0, s2],
            [0.0, 0.0, 0.0, 0.0, s2, s2, M - 3.0 + w],
        ]
    )


def connectivity_and_norm(spec: GraphSpec) -> tuple[float, float]:
    """Algebraic connectivity lambda1 and norm ||A||, from one eigensolve of
    the 7 x 7 reduced Laplacian d I - reduced_adjacency, d = ``spec.degree``.

    The class space is A-invariant and holds e_a.  The graph is
    vertex-transitive, so each eigenprojector E of A has a constant diagonal
    and E e_a != 0: the class space holds an eigenvector of every distinct
    eigenvalue of A, and the quotient has exactly those eigenvalues (an
    equitable partition; Godsil & Royle, Algebraic Graph Theory, 9.3).  Every
    vertex has weighted degree d, so the Laplacian is d I - A; its smallest
    eigenvalue, 0, is simple (the graph is connected) and belongs to
    ||A|| = d (Perron-Frobenius).  Hence lambda1 = lap[1] and
    ||A|| = d - lap[0].  The Laplacian form keeps both within 6 eps ||A|| of
    the closed forms for M up to 2**53 and w from 1e-12 to 1e15; the
    difference of A's two largest eigenvalues reaches 15 eps ||A||.
    """
    lap = np.linalg.eigvalsh(spec.degree * np.eye(7) - reduced_adjacency(spec))
    return float(lap[1]), float(spec.degree - lap[0])


def check_generator_scale(spec: GraphSpec, gamma: float) -> None:
    """Refuse a gamma that is not finite and > 0, or at which -gamma * A
    overflows.

    ||A|| = M - 1 + w bounds every entry and eigenvalue of A, in the class
    basis and on the full vertex space, so the generator's entries and
    spectrum are finite when gamma * ||A|| is.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError("gamma must be finite and > 0")
    if not math.isfinite(gamma * spec.degree):
        raise ValueError(
            f"gamma={gamma:g} at w={spec.w:g} overflows the search generator: "
            "gamma * ||A|| = gamma * (M - 1 + w) exceeds the float range"
        )


def reduced_hamiltonian(spec: GraphSpec, gamma: float) -> np.ndarray:
    """Search generator -gamma * A - |a><a| in the class basis.

    The marked-vertex term lands entirely on the (a, a) entry, which is
    therefore exactly -gamma * 0 - 1 = -1 for every gamma.
    """
    check_generator_scale(spec, gamma)
    ham = -gamma * reduced_adjacency(spec)
    ham[0, 0] -= 1.0
    return ham


def reduced_initial_state(spec: GraphSpec) -> np.ndarray:
    """The all-vertex equal superposition in the class basis: sqrt(class size / N)."""
    sizes = class_sizes(spec.M)
    amps = np.sqrt([float(sizes[tag]) for tag in CLASS_TAGS])
    return (amps / np.sqrt(float(spec.n_vertices))).astype(complex)


def full_initial_state(spec: GraphSpec) -> np.ndarray:
    n = spec.n_vertices
    return np.full(n, 1.0 / np.sqrt(float(n)), dtype=complex)


def full_hamiltonian(spec: GraphSpec, gamma: float) -> np.ndarray:
    """Search generator -gamma * A - |a><a| on the full vertex space."""
    check_generator_scale(spec, gamma)
    ham = -gamma * build_adjacency(spec)
    ham[0, 0] -= 1.0
    return ham
