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
from typing import NamedTuple, Sequence

import numpy as np

from . import theory
from .graph import GraphSpec
from .spectral import _bisect
from .subspace import reduced_hamiltonian, reduced_initial_state

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    for stage in stages:
        if not stage.gamma > 0:
            raise ValueError("stage gamma must be > 0")
        if stage.duration < 0:
            raise ValueError("stage duration must be >= 0")
    return stages


class _Propagator:
    """Eigendecompositions and stage-start states for one schedule, so the
    amplitudes at a batch of global times cost one contraction per stage."""

    def __init__(self, spec: GraphSpec, schedule: Schedule):
        self.stages = _validate_schedule(schedule)
        self.boundaries = np.concatenate(
            [[0.0], np.cumsum([s.duration for s in self.stages])]
        )
        self._spectra = []
        psi = reduced_initial_state(spec)
        for stage in self.stages:
            lam, vecs = np.linalg.eigh(reduced_hamiltonian(spec, stage.gamma))
            coeff = vecs.T @ psi
            self._spectra.append((lam, vecs, coeff))
            psi = _contract(lam, vecs, coeff, stage.duration)

    def amplitudes(self, times, rows):
        """Amplitudes of the state components ``rows`` (an index or a slice)
        at a scalar global time, shaped like ``vecs[rows]``, or at a sorted
        1-D array of times, with a trailing time axis.  A time on a stage
        boundary belongs to the later stage; times outside the schedule
        extend the first or last stage."""
        inner = self.boundaries[1:-1]
        if np.ndim(times) == 0:
            k = int(np.searchsorted(inner, times, side="right"))
            lam, vecs, coeff = self._spectra[k]
            return _contract(lam, vecs[rows], coeff, times - self.boundaries[k])
        pieces = zip(self._spectra, np.split(times, np.searchsorted(times, inner)),
                     self.boundaries)
        return np.concatenate(
            [_contract(lam[:, None], vecs[rows], coeff[:, None], tau - start)
             for (lam, vecs, coeff), tau, start in pieces],
            axis=-1,
        )


def run_schedule(
    spec: GraphSpec, schedule: Schedule, samples_per_stage: int = 2000
) -> TimeSeries:
    """Evolve the equal superposition through the schedule, sampling each
    stage uniformly; the state is continuous across stage boundaries."""
    if samples_per_stage < 1:
        raise ValueError("samples_per_stage must be >= 1")
    prop = _Propagator(spec, schedule)
    times = [0.0]
    for k, stage in enumerate(prop.stages):
        if stage.duration == 0.0:
            continue
        start = prop.boundaries[k]
        times.extend(start + stage.duration * np.arange(1, samples_per_stage + 1)
                     / samples_per_stage)
    times = np.asarray(times)
    amps = prop.amplitudes(times, slice(None))
    return TimeSeries(
        times=times,
        prob_a=np.abs(amps[0]) ** 2,
        prob_b=np.abs(amps[1]) ** 2,
        norm=np.linalg.norm(amps, axis=0),
        stage_boundaries=tuple(float(b) for b in prop.boundaries[1:]),
    )


def _grid_max(f, times: np.ndarray, xtol: float) -> tuple[float, float]:
    """Maximum of f, which takes a scalar or an array of times: the best
    point of the sorted grid ``times``, refined by golden-section search
    between its neighbours to xtol.  The grid point is kept when the
    refinement ends lower."""
    values = f(times)
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
    spec: GraphSpec, schedule: Schedule, grid_points: int = 10_000
) -> tuple[float, float]:
    """Time and value of the maximum marked-vertex probability over a schedule.

    A uniform grid (plus the stage boundaries) brackets the maximum, which is
    then refined by golden-section search to 1e-6 of the total duration.  The
    grid must stay dense because the success spike is narrow: roughly t2 wide
    inside a schedule of length ~t1.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    prop = _Propagator(spec, schedule)
    total = prop.boundaries[-1]
    times = np.unique(
        np.concatenate([np.linspace(0.0, total, grid_points), prop.boundaries])
    )
    return _grid_max(lambda t: np.abs(prop.amplitudes(t, 0)) ** 2, times, 1e-6 * total)


def width_scan(
    spec: GraphSpec, stage: int, offsets: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Peak success probability of the two-stage schedule as one stage's gamma
    is detuned by each offset; the other stage stays at its critical value."""
    if stage not in (1, 2):
        raise ValueError("stage must be 1 or 2")
    base = two_stage_schedule(spec)
    offsets = np.asarray(offsets, dtype=float)
    peaks = np.empty(offsets.shape)
    for i, eps in enumerate(offsets):
        stages = list(base)
        gamma, duration = stages[stage - 1]
        if gamma + eps <= 0:
            raise ValueError(f"offset {eps} drives gamma nonpositive")
        stages[stage - 1] = Stage(gamma + eps, duration)
        _, peaks[i] = peak_success(spec, stages)
    return offsets, peaks


def stage_half_width(spec: GraphSpec, stage: int) -> float:
    """Smallest positive gamma detuning that halves the peak success
    probability, found by geometric bracketing plus bisection."""
    scale = spec.M ** -1.5
    _, baseline = peak_success(spec, two_stage_schedule(spec))

    def peak(eps: float) -> float:
        _, peaks = width_scan(spec, stage, [eps])
        return float(peaks[0])

    eps = 1e-3 * scale
    while peak(eps) <= baseline / 2:
        eps /= 4.0
        if eps < 1e-12 * scale:
            raise RuntimeError("peak success is degraded at arbitrarily small detuning")
    lo, hi = eps, 1.5 * eps
    while peak(hi) > baseline / 2:
        lo = hi
        hi *= 1.5
        if hi > 10.0 / math.sqrt(spec.M):
            raise RuntimeError("no halving detuning found below 10/sqrt(M)")
    return _bisect(lambda eps: peak(eps) - baseline / 2, lo, hi, 1e-10)


def optimal_stage1_duration(
    spec: GraphSpec, window: float = 1.6, grid_points: int = 20_001
) -> tuple[float, float]:
    """Stage-1 duration that maximizes the marked-cluster probability.

    Scans prob_b under the stage-1 critical generator over [0, window * t1]
    and refines the best grid point by golden-section search.  The measured
    optimum differs from the closed-form t1 by the subleading corrections the
    closed form drops.
    """
    pred = theory.predict(spec)
    prop = _Propagator(spec, [Stage(pred.gamma_c1, window * pred.t1)])
    times = np.linspace(0.0, window * pred.t1, grid_points)
    return _grid_max(
        lambda t: np.abs(prop.amplitudes(t, 1)) ** 2, times, 1e-9 * pred.t1
    )
