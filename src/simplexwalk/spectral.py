"""Eigenstate overlaps and jumping-rate scans.

The jumping-rate scans reproduce the avoided crossings that locate the two
critical rates: the equal superposition swaps between the lowest two
eigenstates near gamma_c1, and the b class vector swaps between the ground
and third excited states near gamma_c2.  Eigenstates are labeled by ascending
eigenvalue at each grid point; no continuity tracking across the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphSpec
from .subspace import (
    _search_generator,
    check_generator_scale,
    reduced_adjacency,
    reduced_hamiltonian,
    reduced_initial_state,
)

PROBE_TAGS = ("s", "a", "b")


class NoCrossingError(ValueError):
    """The overlap difference does not change sign on the given bracket."""


def overlaps(vectors: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Squared overlaps |<eigenvector_k | probe>|^2 of the eigenvector columns
    of ``vectors``; they sum to 1 for a unit probe.

    A stack of eigenvector matrices, shape (..., n, n), gives overlaps of
    shape (..., n).  Negating an eigenvector negates each product and their
    sum exactly, so the overlaps do not depend on the solver's sign choice.
    """
    probe = np.asarray(probe)
    if probe.shape != (vectors.shape[-2],):
        raise ValueError("probe has wrong dimension")
    return np.abs(vectors.swapaxes(-1, -2) @ probe) ** 2


def probe_state(spec: GraphSpec, tag: str) -> np.ndarray:
    """Reduced probe vector: "s" the equal superposition, "a" or "b" a class vector."""
    if tag == "s":
        return reduced_initial_state(spec)
    if tag in ("a", "b"):
        probe = np.zeros(7, dtype=complex)
        probe[("a", "b").index(tag)] = 1.0
        return probe
    raise ValueError(f"unknown probe tag {tag!r}; expected one of {PROBE_TAGS}")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Overlap curves on a uniform jumping-rate grid.

    ``curves[tag]`` has shape (points, 7): row i holds |<eigenvector_k |
    probe>|^2 at gamma = gammas[i] for k = 0..6.
    """

    gammas: np.ndarray
    curves: dict[str, np.ndarray]


def gamma_sweep(
    spec: GraphSpec, gamma_range: tuple[float, float], points: int
) -> SweepResult:
    """Diagonalize the reduced search generator on a uniform gamma grid and
    record the overlap of each eigenstate with the s, a, and b probes."""
    lo, hi = gamma_range
    if not (0 < lo < hi and math.isfinite(hi)):
        raise ValueError("gamma range must be finite and satisfy 0 < lo < hi")
    if not isinstance(points, (int, np.integer)) or points < 2:
        raise ValueError("points must be an integer >= 2")
    check_generator_scale(spec, hi)
    gammas = np.linspace(lo, hi, points)
    stack = _search_generator(reduced_adjacency(spec), gammas[:, None, None])
    _, vectors = np.linalg.eigh(stack)
    curves = {tag: overlaps(vectors, probe_state(spec, tag)) for tag in PROBE_TAGS}
    return SweepResult(gammas=gammas, curves=curves)


def _bisect(f, lo: float, hi: float, rel_tol: float) -> float:
    """Root of f on a bracket where f(lo) > 0 >= f(hi), by bisection until
    hi - lo <= rel_tol * hi or the bracket reaches float resolution.

    The caller orients f; neither endpoint is evaluated here.
    """
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: ITP's n0: the evaluations ``_itp`` may take beyond bisection's worst
#: case, which steps that shrink the bracket by less than half spend.
_ITP_N0 = 1


def _itp(f, lo: float, hi: float, f_lo: float, f_hi: float, rel_tol: float) -> float:
    """Root of f on [lo, hi] by the ITP method (Oliveira & Takahashi, ACM
    TOMS 47(1), 2020), given the endpoint values f_lo = f(lo), which is
    nonzero, and f_hi = f(hi), which is zero or of the other sign.

    Each step takes the regula falsi point, moves it toward the midpoint by
    0.2 (hi - lo)^2 / (initial hi - lo), and projects it into a ball around
    the midpoint that shrinks like bisection's bracket.  It stops once
    hi - lo <= rel_tol * hi, with hi as given and rel_tol > 0, or at float
    resolution, after at most ceil(log2((hi - lo) / (rel_tol * hi))) +
    ``_ITP_N0`` evaluations of f: bisection's count plus n0, on any f.  On a
    smooth f it converges superlinearly.
    """
    tol = 0.5 * rel_tol * hi
    n_max = max(0, math.ceil(math.log2((hi - lo) / (2 * tol)))) + _ITP_N0
    kappa = 0.2 / (hi - lo)
    # in exact arithmetic hi - lo <= 2 tol after n_max steps; the cap keeps
    # rounding in the projection from adding one more
    for j in range(n_max):
        if hi - lo <= 2 * tol:
            break
        mid = 0.5 * (lo + hi)
        radius = tol * 2.0 ** (n_max - j) - 0.5 * (hi - lo)
        falsi = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)
        toward = math.copysign(1.0, mid - falsi)
        shift = kappa * (hi - lo) ** 2
        x = falsi + toward * shift if shift <= abs(mid - falsi) else mid
        if abs(x - mid) > radius:
            x = mid - toward * radius
        if not lo < x < hi:  # a nudge below float resolution left x on an end
            x = mid
            if not lo < x < hi:
                break
        y = f(x)
        if y == 0.0:
            return x
        if (y > 0) == (f_lo > 0):
            lo, f_lo = x, y
        else:
            hi, f_hi = x, y
    return 0.5 * (lo + hi)


def find_crossing(
    spec: GraphSpec,
    probe: str,
    eig_pair: tuple[int, int],
    bracket: tuple[float, float],
) -> float:
    """Locate the gamma where the probe's overlap moves between two eigenstates.

    Bisects the sign change of |<psi_j|probe>|^2 - |<psi_k|probe>|^2 on the
    bracket to a relative width of 1e-10.  The difference must be nonzero at
    the lower end and zero or of the other sign at the upper end.  At the
    crossing of an avoided degeneracy the probe splits half and half; for
    M >= 100 both overlaps are required to be within 0.1 of 1/2, otherwise
    the sign change is rejected as spurious.
    """
    j, k = eig_pair
    if j == k or not all(isinstance(i, (int, np.integer)) and 0 <= i <= 6 for i in (j, k)):
        raise ValueError(f"eig_pair must be two distinct integers in 0..6; got {eig_pair!r}")
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    probe_vec = probe_state(spec, probe)

    def overlaps_at(gamma: float) -> np.ndarray:
        return overlaps(np.linalg.eigh(reduced_hamiltonian(spec, gamma))[1], probe_vec)

    def diff(gamma: float) -> float:
        ov = overlaps_at(gamma)
        return float(ov[j] - ov[k])

    f_lo, f_hi = diff(lo), diff(hi)
    # a sign test, not f_lo * f_hi <= 0, which a zero at both ends or an
    # underflowing product would pass
    if f_lo == 0.0 or (f_hi != 0.0 and (f_hi > 0) == (f_lo > 0)):
        raise NoCrossingError(
            f"no overlap crossing for probe {probe!r} between eigenstates "
            f"{j} and {k} in [{lo:g}, {hi:g}]"
        )
    sign = 1.0 if f_lo > 0 else -1.0
    gamma_star = _bisect(lambda gamma: sign * diff(gamma), lo, hi, 1e-10)
    if spec.M >= 100:
        ov = overlaps_at(gamma_star)
        if abs(ov[j] - 0.5) > 0.1 or abs(ov[k] - 0.5) > 0.1:
            raise NoCrossingError(
                f"sign change at gamma={gamma_star:g} is not an avoided-crossing "
                f"split: overlaps are {ov[j]:.4f} and {ov[k]:.4f}"
            )
    return gamma_star
