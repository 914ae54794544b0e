"""Closed-form predictions for the two-stage search on the weighted simplex.

Everything here is pure arithmetic (no linear algebra), so the module serves
as an independent oracle for the numeric graph/spectral/dynamics routes.

Conventions: the search generator is H = -gamma * A - |a><a|.  Stage-1 moves
the equal superposition onto the marked cluster at jumping rate gamma_c1 =
(1 + 1/w) / M; stage-2 concentrates it on the marked vertex at gamma_c2 =
1 / M.  Each stage runs for pi divided by its energy gap.  The unperturbed
eigenvalues E_u, E_v exposed below are eigenvalues of the walk-side matrix
K = -H / gamma (so larger K-eigenvalue means lower energy); their degeneracy
in gamma defines the stage-1 critical point.

All stage-1 formulas assume w grows slower than sqrt(M); :func:`predict`
emits a warning outside that regime, where the two critical rates collide.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .graph import GraphSpec


@dataclass(frozen=True)
class Prediction:
    """Closed-form quantities for one (M, w) instance.

    gamma_c1 / gamma_c2   critical jumping rates for stages 1 and 2
    t1 / t2               stage durations, pi / gap
    gap1 / gap2           energy gaps 2(1+w)/M^1.5 and 2/sqrt(M)
    E_u / E_v             unperturbed eigenvalues at gamma_c1 (K convention)
    R_u / R_v             the radicands inside E_u and E_v
    E_plus / E_minus      stage-1 eigenvalues after degeneracy splitting
    lambda1               algebraic connectivity of the graph
    op_norm_A             operator norm of the adjacency matrix, M + w - 1
    """

    gamma_c1: float
    gamma_c2: float
    t1: float
    t2: float
    gap1: float
    gap2: float
    E_u: float
    E_v: float
    R_u: float
    R_v: float
    E_plus: float
    E_minus: float
    lambda1: float
    op_norm_A: float

    def to_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def radicands(M: int, w: float, gamma: float) -> tuple[float, float]:
    """R_u(gamma) and R_v; both are nonnegative for M >= 3, w > 0, gamma > 0."""
    # x * x, not x**2: a huge w or gamma then overflows to inf instead of raising
    r_u = 1 + 4 * gamma - 2 * M * gamma + 4 * (gamma * gamma) + M * M * (gamma * gamma)
    r_v = 9 + 2 * M + M * M - 6 * w + 2 * M * w + w * w
    return r_u, r_v


def _energy_u(M: int, gamma: float, r_u: float) -> float:
    """E_u at gamma, given R_u(gamma)."""
    return (1 - 2 * gamma + M * gamma + math.sqrt(r_u)) / (2 * gamma)


def _energy_v(M: int, w: float, r_v: float) -> float:
    """E_v, given R_v; it does not depend on gamma."""
    return 0.5 * (-3 + M + w + math.sqrt(r_v))


def unperturbed_pair(
    spec: GraphSpec, gamma: float
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Normalized eigenvectors (u, v) and eigenvalues (E_u, E_v) of the
    adjusted leading-order walk matrix.

    u lives on the (a, b) pair and tends to the b class vector at large M;
    v lives on (e, f, g) and tends to the g class vector, which dominates
    the equal superposition.  Eigenvalues use the K = -H / gamma convention.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError("gamma must be finite and > 0")
    M, w = spec.M, spec.w
    r_u, r_v = radicands(M, w, gamma)
    coef_a = (1 + 2 * gamma - M * gamma + math.sqrt(r_u)) / (2 * math.sqrt(M) * gamma)
    coef_ef = 2 * math.sqrt(M) / (-3 + M + w + math.sqrt(r_v))
    u = np.array([coef_a, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 0.0, 0.0, coef_ef, coef_ef, 1.0])
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    return u, v, _energy_u(M, gamma, r_u), _energy_v(M, w, r_v)


def gamma_c1_exact(spec: GraphSpec) -> float:
    """Solve E_u(gamma) = E_v for gamma by bisection.

    The closed-form gamma_c1 keeps only the leading order of this root; the
    exact root differs by O(1/M) relative.  The bracket upper end is widened
    beyond 4/M when w < 1 so the root (1 + 1/w)/M stays inside.
    """
    M, w = spec.M, spec.w
    e_v = _energy_v(M, w, radicands(M, w, 1.0)[1])

    def diff(gamma: float) -> float:
        return _energy_u(M, gamma, radicands(M, w, gamma)[0]) - e_v

    lo = 1.0 / M
    hi = max(4.0, 2 * (1 + 1 / w)) / M
    if not math.isfinite(hi):
        raise ValueError(
            f"w={w} is too small: the stage-1 rate bracket 2(1 + 1/w)/M overflows")
    f_lo, f_hi = diff(lo), diff(hi)
    if f_lo * f_hi > 0:
        raise ValueError("no eigenvalue degeneracy inside the bracket")
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        f_mid = diff(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def algebraic_connectivity_formula(M: int, w: float) -> float:
    """Closed form for the second-smallest Laplacian eigenvalue; ~ w at large M.

    This is (M + 2w - R) / 2 with R = sqrt(M^2 - 4w + 4w^2), rationalised to
    2w(M + 1) / (M + 2w + R): the difference cancels catastrophically once w
    is far from M, and w^2 overflows.  R is ``hypot(2w - 1, sqrt(M^2 - 1))``,
    and M + 1 multiplies last, so neither overflows for w below 4e307."""
    root = math.hypot(2 * w - 1, math.sqrt(M * M - 1))
    return 2 * w / (M + 2 * w + root) * (M + 1)


def _leading_order(M: int, w: float) -> tuple[float, float, float]:
    """gamma_c1 = (1 + 1/w)/M and the gaps gap1 = 2(1 + w)/M^1.5, gap2 = 2/sqrt(M)."""
    return (1 + 1 / w) / M, 2 * (1 + w) / M**1.5, 2 / math.sqrt(M)


def predict(spec: GraphSpec) -> Prediction:
    """All closed-form quantities for one (M, w) instance."""
    M, w = spec.M, spec.w
    if w >= math.sqrt(M):
        warnings.warn(
            f"w={w} is not below sqrt(M)={math.sqrt(M):.4g}; the two critical "
            "jumping rates collide and the two-stage predictions degrade",
            stacklevel=2,
        )
    gamma_c1, gap1, gap2 = _leading_order(M, w)
    if not math.isfinite(gamma_c1):
        raise ValueError(f"w={w} is too small: the stage-1 rate (1 + 1/w)/M overflows")
    gamma_c2 = 1.0 / M
    r_u, r_v = radicands(M, w, gamma_c1)
    e_base = -(1 + w) / w + (1 - w * w) / (w * M)
    return Prediction(
        gamma_c1=gamma_c1,
        gamma_c2=gamma_c2,
        t1=math.pi / gap1,
        t2=math.pi / gap2,
        gap1=gap1,
        gap2=gap2,
        E_u=_energy_u(M, gamma_c1, r_u),
        E_v=_energy_v(M, w, r_v),
        R_u=r_u,
        R_v=r_v,
        E_plus=e_base - (1 + w) / M**1.5,
        E_minus=e_base + (1 + w) / M**1.5,
        lambda1=algebraic_connectivity_formula(M, w),
        op_norm_A=M + w - 1.0,
    )


# x* > 0 with sin^2(pi/2 sqrt(1 + x^2)) / (1 + x^2) = 1/2
_X_HALF_STAGE1 = 0.7986853552847010


def half_width(spec: GraphSpec, stage: int) -> float:
    """Closed-form detuning of one stage's gamma that halves the peak success.

    Each stage is a two-level crossing of two diabatic energies with gap g and
    slope s = |d(E_1 - E_2)/dgamma|, so a detuning eps gives x = s eps / g.
    Stage 2's peak is a maximum over time, 1/(1 + x^2), which halves at x = 1;
    its slope is M - 2, so eps = gap2 / (M - 2).  Stage 1 runs for the fixed
    t1 = pi / gap1, so its peak is sin^2(pi/2 sqrt(1 + x^2)) / (1 + x^2),
    which halves at x* = 0.79869; its slope at gamma_c1 = (1 + 1/w)/M is
    |(M - 2)/2 + R_u'/(4 sqrt(R_u)) - E_v|, with R_u' = dR_u/dgamma, and
    tends to w (1 + w), so eps tends to 2 x* / (w M^1.5).  Both over-estimate
    the numeric half-width by the terms the two-level picture drops: the
    numeric value is 0.92-1.0 times this one at M = 4000, w <= 3, and the
    ratio tends to 1 as sqrt(M) / w grows.
    """
    M, w = spec.M, spec.w
    gamma, gap1, gap2 = _leading_order(M, w)
    if stage == 2:
        return gap2 / (M - 2)
    if stage != 1:
        raise ValueError("stage must be 1 or 2")
    r_u, r_v = radicands(M, w, gamma)
    r_u_slope = 4 - 2 * M + 8 * gamma + 2 * M * M * gamma
    slope = abs((M - 2) / 2 + r_u_slope / (4 * math.sqrt(r_u)) - _energy_v(M, w, r_v))
    return _X_HALF_STAGE1 * gap1 / slope


def census_formulas(M: int) -> dict[tuple[str, str, str], int]:
    """Closed-form edge census; keys match :data:`simplexwalk.graph.CENSUS_KEYS`."""
    if M < 3:
        raise ValueError("M must be >= 3")
    return {
        ("a", "c", "w"): 1,
        ("b", "e", "w"): M - 1,
        ("d", "f", "w"): M - 1,
        ("g", "g", "w"): (M - 1) * (M - 2) // 2,
        ("a", "b", "1"): M - 1,
        ("b", "b", "1"): (M - 1) * (M - 2) // 2,
        ("c", "d", "1"): M - 1,
        ("d", "d", "1"): (M - 1) * (M - 2) // 2,
        ("e", "f", "1"): M - 1,
        ("e", "g", "1"): (M - 1) * (M - 2),
        ("f", "g", "1"): (M - 1) * (M - 2),
        ("g", "g", "1"): (M - 1) * (M - 2) * (M - 3) // 2,
    }


def validity_margin(spec: GraphSpec) -> float:
    """Separation of the critical rates in stage-2 width units: sqrt(M) / w.

    Values near or below 1 mean the two stages collide and the two-stage
    schedule stops working.
    """
    return math.sqrt(spec.M) / spec.w
