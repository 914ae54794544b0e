"""Exact time evolution under piecewise-constant search generators.

Each stage's generator is a constant real symmetric matrix, so evolution goes
through the spectral decomposition (exact to machine precision, no step-size
tuning).  The canonical workload is the two-stage schedule: hold gamma at its
stage-1 critical value long enough to pile probability onto the marked
cluster, then drop to the stage-2 value for the short hop onto the marked
vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import theory
from .graph import GraphSpec
from .spectral import _bisect
from .subspace import reduced_hamiltonian, reduced_initial_state

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 10_000


class Stage(NamedTuple):
    gamma: float
    duration: float


Schedule = Sequence[Stage] | Sequence[tuple[float, float]]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled probabilities at the marked vertex (prob_a) and its cluster
    mates (prob_b), plus the state norm, along one schedule."""

    times: np.ndarray
    prob_a: np.ndarray
    prob_b: np.ndarray
    norm: np.ndarray
    stage_boundaries: tuple[float, ...]


def _contract(lam: np.ndarray, vecs: np.ndarray, coeff: np.ndarray, tau):
    """``vecs @ (exp(-i lam tau) * coeff)``: eigenbasis coefficients evolved
    for time tau and mapped back through the eigenvector rows ``vecs`` (all
    of them, or only the rows a caller needs).  For a 1-D array of times,
    pass ``lam`` and ``coeff`` as columns; the result gains a trailing time
    axis."""
    return vecs @ (np.exp(-1j * lam * tau) * coeff)


def evolve(hamiltonian: np.ndarray, state: np.ndarray, t: float) -> np.ndarray:
    """Propagate a state for time t under a constant symmetric generator."""
    hamiltonian = np.asarray(hamiltonian)
    if not np.array_equal(hamiltonian, hamiltonian.T):
        raise ValueError("hamiltonian must be symmetric")
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (hamiltonian.shape[0],):
        raise ValueError("state dimension does not match hamiltonian")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    lam, vecs = np.linalg.eigh(hamiltonian)
    return _contract(lam, vecs, vecs.T @ psi, t)


def two_stage_schedule(spec: GraphSpec) -> list[Stage]:
    """The closed-form schedule: (gamma_c1, t1) then (gamma_c2, t2)."""
    pred = theory.predict(spec)
    return [Stage(pred.gamma_c1, pred.t1), Stage(pred.gamma_c2, pred.t2)]


def _validate_schedule(schedule: Schedule) -> list[Stage]:
    stages = [Stage(float(g), float(d)) for g, d in schedule]
    if not stages:
        raise ValueError("schedule must contain at least one stage")
    if not all(math.isfinite(s.duration) and s.duration >= 0 for s in stages):
        raise ValueError("stage durations must be finite and >= 0")
    if not all(math.isfinite(s.gamma) and s.gamma > 0 for s in stages):
        raise ValueError("stage gammas must be finite and > 0")
    return stages


class _Propagator:
    """Eigendecompositions and stage-start states for one schedule, so the
    amplitudes at a batch of global times cost one contraction per stage.

    ``spectra`` maps a gamma to the eigendecomposition of its reduced
    generator.  ``_detuned_peak`` passes one dict to all the propagators it
    builds for one spec, so a gamma they share is diagonalised once.
    """

    def __init__(self, spec: GraphSpec, schedule: Schedule,
                 spectra: dict | None = None):
        self.stages = _validate_schedule(schedule)
        self.boundaries = np.concatenate(
            [[0.0], np.cumsum([s.duration for s in self.stages])]
        )
        for k, stage in enumerate(self.stages):
            if stage.duration > 0 and self.boundaries[k + 1] == self.boundaries[k]:
                raise ValueError(
                    "stage durations must advance the float64 global time: stage "
                    f"{k + 1} (duration {stage.duration:g}) vanishes after "
                    f"{self.boundaries[k]:g}"
                )
        spectra = {} if spectra is None else spectra
        self._spectra = []
        psi = reduced_initial_state(spec)
        for stage in self.stages:
            if stage.gamma not in spectra:
                spectra[stage.gamma] = np.linalg.eigh(reduced_hamiltonian(spec, stage.gamma))
            lam, vecs = spectra[stage.gamma]
            coeff = vecs.T @ psi
            self._spectra.append((lam, vecs, coeff))
            psi = _contract(lam, vecs, coeff, stage.duration)

    def stage_slices(self, times: np.ndarray) -> list[slice]:
        """One index range per stage into a sorted 1-D array of global times.
        A time on a stage boundary belongs to the later stage; times outside
        the schedule extend the first or last stage."""
        edges = [0, *np.searchsorted(times, self.boundaries[1:-1]), len(times)]
        return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]

    def stage_amplitudes(self, k: int, times: np.ndarray, rows) -> np.ndarray:
        """Amplitudes of the state components ``rows`` under stage k's
        generator at a 1-D array of global times, with a trailing time axis."""
        lam, vecs, coeff = self._spectra[k]
        return _contract(lam[:, None], vecs[rows], coeff[:, None],
                         times - self.boundaries[k])

    def amplitude_bounds(self, row: int) -> np.ndarray:
        """Per stage, ``sum_j |V[row, j] c_j|``: by the triangle inequality no
        amplitude of component ``row`` in that stage has a larger modulus."""
        return np.array([np.abs(vecs[row] * coeff).sum() for _, vecs, coeff in self._spectra])

    def amplitudes(self, times, rows):
        """Amplitudes of the state components ``rows`` (an index or a slice)
        at a scalar global time, shaped like ``vecs[rows]``, or at a sorted
        1-D array of times, with a trailing time axis (stages assigned as in
        ``stage_slices``)."""
        if np.ndim(times) == 0:
            k = int(np.searchsorted(self.boundaries[1:-1], times, side="right"))
            lam, vecs, coeff = self._spectra[k]
            return _contract(lam, vecs[rows], coeff, times - self.boundaries[k])
        return np.concatenate(
            [self.stage_amplitudes(k, times[piece], rows)
             for k, piece in enumerate(self.stage_slices(times))],
            axis=-1,
        )


def run_schedule(
    spec: GraphSpec, schedule: Schedule, samples_per_stage: int = 2000
) -> TimeSeries:
    """Evolve the equal superposition through the schedule, sampling each
    stage uniformly; the state is continuous across stage boundaries."""
    if not isinstance(samples_per_stage, (int, np.integer)) or samples_per_stage < 1:
        raise ValueError("samples_per_stage must be an integer >= 1")
    prop = _Propagator(spec, schedule)
    steps = np.arange(1, samples_per_stage + 1)
    times = np.concatenate([[0.0]] + [
        start + stage.duration * steps / samples_per_stage
        for start, stage in zip(prop.boundaries, prop.stages) if stage.duration > 0
    ])
    amps = prop.amplitudes(times, slice(None))
    return TimeSeries(
        times=times,
        prob_a=np.abs(amps[0]) ** 2,
        prob_b=np.abs(amps[1]) ** 2,
        norm=np.linalg.norm(amps, axis=0),
        stage_boundaries=tuple(float(b) for b in prop.boundaries[1:]),
    )


def _grid_max(f, times: np.ndarray, values: np.ndarray, xtol: float) -> tuple[float, float]:
    """Maximum of f, which takes a scalar time: the best point of the sorted
    grid ``times``, whose values the caller gives, refined by golden-section
    search between its neighbours to xtol.  The grid point is kept when the
    refinement ends lower.  A value may be -inf where the caller knows the
    point cannot be the grid's maximum."""
    i = int(np.argmax(values))
    lo = times[max(i - 1, 0)]
    hi = times[min(i + 1, len(times) - 1)]
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
    mid = 0.5 * (lo + hi)
    f_mid = f(mid)
    if values[i] > f_mid:
        return float(times[i]), float(values[i])
    return float(mid), float(f_mid)


def peak_success(
    spec: GraphSpec, schedule: Schedule, grid_points: int = _GRID_POINTS
) -> tuple[float, float]:
    """Time and value of the maximum marked-vertex probability over a schedule.

    A uniform grid (plus the stage boundaries) brackets the maximum, which is
    then refined by golden-section search to 1e-6 of the total duration.  The
    grid must stay dense because the success spike is narrow: roughly t2 wide
    inside a schedule of length ~t1.

    Most of the grid is never evaluated.  In stage k the marked-vertex
    amplitude is ``sum_j V[0, j] c_j exp(-i lam_j tau)``, with the stage's
    eigenvectors V and the stage-start state's eigenbasis coefficients c, so
    the probability there never exceeds ``B_k**2``, where
    ``B_k = sum_j |V[0, j] c_j|``.  Stages are evaluated in descending
    ``B_k``, and a stage whose ``B_k**2`` (with 1e-9 relative slack for
    rounding) is below the best grid value so far is skipped: none of its
    points can be the grid maximum.  The result equals that of the full-grid
    search bit for bit.  On the two-stage schedule this skips stage 1, which
    holds nearly all of the grid while its probability stays O(1/M).
    """
    if not isinstance(grid_points, (int, np.integer)) or grid_points < 2:
        raise ValueError("grid_points must be an integer >= 2")
    return _peak(_Propagator(spec, schedule), grid_points)


def _peak(prop: _Propagator, grid_points: int) -> tuple[float, float]:
    """``peak_success`` on an already built propagator."""
    total = prop.boundaries[-1]
    times = np.unique(
        np.concatenate([np.linspace(0.0, total, grid_points), prop.boundaries])
    )
    values = np.full(times.shape, -np.inf)
    pieces = prop.stage_slices(times)
    bounds = prop.amplitude_bounds(0)
    best = -np.inf
    for k in np.argsort(bounds)[::-1]:
        if bounds[k] ** 2 * (1 + 1e-9) < best:
            break
        piece = pieces[k]
        values[piece] = np.abs(prop.stage_amplitudes(k, times[piece], 0)) ** 2
        best = max(best, values[piece].max(initial=-np.inf))
    return _grid_max(
        lambda t: np.abs(prop.amplitudes(t, 0)) ** 2, times, values, 1e-6 * total
    )


def _detuned_peak(spec: GraphSpec, stage: int) -> Callable[[float], float]:
    """``peak(eps)``: the two-stage schedule's peak success probability with one
    stage's gamma detuned by eps.  The calls share one dict of eigendecompositions,
    so the stage held at its critical gamma is diagonalised once."""
    if stage not in (1, 2):
        raise ValueError("stage must be 1 or 2")
    stages = two_stage_schedule(spec)
    gamma, duration = stages[stage - 1]
    spectra: dict = {}

    def peak(eps: float) -> float:
        if gamma + eps <= 0:
            raise ValueError(f"offset {eps} drives gamma nonpositive")
        stages[stage - 1] = Stage(gamma + eps, duration)
        return _peak(_Propagator(spec, stages, spectra), _GRID_POINTS)[1]

    return peak


def width_scan(
    spec: GraphSpec, stage: int, offsets: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Peak success probability of the two-stage schedule as one stage's gamma
    is detuned by each offset; the other stage stays at its critical value
    and is diagonalised once for the whole scan."""
    peak = _detuned_peak(spec, stage)
    offsets = np.asarray(offsets, dtype=float)
    return offsets, np.array([peak(eps) for eps in offsets])


def stage_half_width(spec: GraphSpec, stage: int) -> float:
    """Smallest positive gamma detuning that halves the peak success
    probability, found by geometric bracketing plus bisection."""
    peak = _detuned_peak(spec, stage)
    half = peak(0.0) / 2
    scale = spec.M ** -1.5
    eps = 1e-3 * scale
    while peak(eps) <= half:
        eps /= 4.0
        if eps < 1e-12 * scale:
            raise RuntimeError("peak success is degraded at arbitrarily small detuning")
    lo, hi = eps, 1.5 * eps
    while peak(hi) > half:
        lo = hi
        hi *= 1.5
        if hi > 10.0 / math.sqrt(spec.M):
            raise RuntimeError("no halving detuning found below 10/sqrt(M)")
    return _bisect(lambda eps: peak(eps) - half, lo, hi, 1e-10)


def optimal_stage1_duration(spec: GraphSpec) -> tuple[float, float]:
    """Stage-1 duration that maximizes the marked-cluster probability.

    Scans prob_b under the stage-1 critical generator on 20,001 points of
    [0, 1.6 t1] and refines the best grid point by golden-section search.  The
    measured optimum differs from the closed-form t1 by the subleading
    corrections the closed form drops.
    """
    pred = theory.predict(spec)
    window = 1.6 * pred.t1
    prop = _Propagator(spec, [Stage(pred.gamma_c1, window)])
    times = np.linspace(0.0, window, 20_001)

    def prob_b(t):
        return np.abs(prop.amplitudes(t, 1)) ** 2

    return _grid_max(prob_b, times, prob_b(times), 1e-9 * pred.t1)
