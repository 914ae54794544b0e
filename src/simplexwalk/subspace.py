"""Reduction of the search problem to its 7-dimensional invariant subspace.

Uniform superpositions over the seven vertex classes span a subspace that the
search Hamiltonian H = -gamma * A - |marked><marked| never leaves, so the
dynamics at any M collapses to a 7 x 7 problem.  Basis order is (a, b, c, d,
e, f, g) everywhere.

The reduced matrices are built from their closed-form template rather than by
numerically projecting the full matrix; the projection identity is then a
test, not a construction, which catches labeling bugs.  Hamiltonians are real
symmetric; states are complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    DEFAULT_MARKED,
    GraphSpec,
    _check_marked,
    build_adjacency,
    classify_vertices,
)


@dataclass(frozen=True, eq=False)
class ReducedBasis:
    """Orthonormal class basis: row k of ``matrix`` is the uniform superposition
    over class CLASS_TAGS[k], as a full-space row vector.  ``marked`` is the
    marked vertex's dense index."""

    spec: GraphSpec
    marked: int
    matrix: np.ndarray  # shape (7, N)

    def project(self, full_state: np.ndarray) -> np.ndarray:
        """Components of a full-space state along the seven class vectors."""
        full_state = np.asarray(full_state)
        if full_state.shape != (self.spec.n_vertices,):
            raise ValueError("full state has wrong dimension")
        return self.matrix @ full_state

    def lift(self, reduced_state: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`project`; isometric embedding into the full space."""
        reduced_state = np.asarray(reduced_state)
        if reduced_state.shape != (7,):
            raise ValueError("reduced state has wrong dimension")
        return self.matrix.T @ reduced_state


def class_basis(spec: GraphSpec, marked: int = DEFAULT_MARKED) -> ReducedBasis:
    classes = classify_vertices(spec, marked)
    mat = np.zeros((7, spec.n_vertices))
    mat[classes, np.arange(spec.n_vertices)] = 1.0
    mat /= np.sqrt(mat.sum(axis=1, keepdims=True))
    return ReducedBasis(spec=spec, marked=marked, matrix=mat)


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


def reduced_hamiltonian(spec: GraphSpec, gamma: float) -> np.ndarray:
    """Search generator -gamma * A - |a><a| in the class basis.

    The marked-vertex term lands entirely on the (a, a) entry, which is
    therefore exactly -gamma * 0 - 1 = -1 for every gamma.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError("gamma must be finite and > 0")
    ham = -gamma * reduced_adjacency(spec)
    ham[0, 0] -= 1.0
    return ham


def reduced_initial_state(spec: GraphSpec) -> np.ndarray:
    """The all-vertex equal superposition, expressed in the class basis."""
    M = spec.M
    s1 = np.sqrt(M - 1.0)
    amps = np.array([1.0, s1, 1.0, s1, s1, s1, np.sqrt((M - 1.0) * (M - 2.0))])
    return (amps / np.sqrt(float(spec.n_vertices))).astype(complex)


def full_initial_state(spec: GraphSpec) -> np.ndarray:
    n = spec.n_vertices
    return np.full(n, 1.0 / np.sqrt(float(n)), dtype=complex)


def full_hamiltonian(
    spec: GraphSpec, gamma: float, marked: int = DEFAULT_MARKED
) -> np.ndarray:
    """Search generator -gamma * A - |marked><marked| on the full vertex space."""
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError("gamma must be finite and > 0")
    _check_marked(spec, marked)
    ham = -gamma * build_adjacency(spec)
    ham[marked, marked] -= 1.0
    return ham
