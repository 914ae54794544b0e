"""Exact time evolution under piecewise-constant search generators.

Each stage's generator is a constant real symmetric matrix, so evolution goes
through the spectral decomposition (exact to machine precision, no step-size
tuning).  The canonical workload is the two-stage schedule: hold gamma at its
stage-1 critical value long enough to pile probability onto the marked
cluster, then drop to the stage-2 value for the short hop onto the marked
vertex.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import theory
from .graph import GraphSpec
from .spectral import _itp
from .subspace import (
    _search_generator,
    check_generator_scale,
    reduced_adjacency,
    reduced_hamiltonian,
    reduced_initial_state,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 10_000
# A stage of fewer grid points is evaluated whole: below this, bounding its
# points costs more than it saves.  A larger one is bounded point by point,
# and the _PAIR_SEEDS points of largest bound are evaluated first.
_PAIR_CUT_POINTS = 1024
_PAIR_SEEDS = 64


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


def _contract(lam: np.ndarray, vecs: np.ndarray, coeff: np.ndarray, tau, cols=None):
    """``vecs @ (exp(-i lam tau) * coeff)``: eigenbasis coefficients evolved
    for time tau and mapped back through the eigenvector rows ``vecs`` (all
    of them, or only the rows a caller needs).  For a 1-D array of times,
    pass ``lam`` and ``coeff`` as columns; the result gains a trailing time
    axis.

    ``cols``, an index array into a 1-D ``tau``, evaluates only those times
    and returns only their columns, each bit for bit what the whole ``tau``
    gives it.  Their phase factors stay in their own columns of an otherwise
    zero block as long as ``tau``, because a BLAS product groups columns by
    position: contracting the compacted columns changed the last bit of
    some of them."""
    phases = np.exp(-1j * lam * (tau if cols is None else tau[cols])) * coeff
    if cols is None:
        return vecs @ phases
    block = np.zeros(phases.shape[:-1] + tau.shape, complex)
    block[..., cols] = phases
    return (vecs @ block)[..., cols]


def evolve(hamiltonian: np.ndarray, state: np.ndarray, t: float) -> np.ndarray:
    """Propagate a state for time t under a constant symmetric generator."""
    hamiltonian = np.asarray(hamiltonian)
    if not np.isfinite(hamiltonian).all():
        raise ValueError("hamiltonian must be finite")
    if not np.array_equal(hamiltonian, hamiltonian.T):
        raise ValueError("hamiltonian must be symmetric")
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (hamiltonian.shape[0],):
        raise ValueError("state dimension does not match hamiltonian")
    if not np.isfinite(psi).all():
        raise ValueError("state must be finite")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    lam, vecs = np.linalg.eigh(hamiltonian)
    return _contract(lam, vecs, vecs.T @ psi, t)


def two_stage_schedule(spec: GraphSpec) -> list[Stage]:
    """The closed-form schedule: (gamma_c1, t1) then (gamma_c2, t2)."""
    pred = theory.predict(spec)
    return [Stage(pred.gamma_c1, pred.t1), Stage(pred.gamma_c2, pred.t2)]


def _validate_schedule(spec: GraphSpec, schedule: Schedule) -> tuple[list[Stage], np.ndarray]:
    """The schedule's stages, checked, and their boundaries in global time:
    0, then the end of each stage.  Each stage's gamma is checked by
    ``check_generator_scale``, after all durations."""
    stages = [Stage(float(g), float(d)) for g, d in schedule]
    if not stages:
        raise ValueError("schedule must contain at least one stage")
    if not all(math.isfinite(s.duration) and s.duration >= 0 for s in stages):
        raise ValueError("stage durations must be finite and >= 0")
    for stage in stages:
        check_generator_scale(spec, stage.gamma)
    boundaries = np.concatenate([[0.0], np.cumsum([s.duration for s in stages])])
    for k, stage in enumerate(stages):
        if stage.duration > 0 and boundaries[k + 1] == boundaries[k]:
            raise ValueError(
                "stage durations must advance the float64 global time: stage "
                f"{k + 1} (duration {stage.duration:g}) vanishes after "
                f"{boundaries[k]:g}"
            )
    return stages, boundaries


def _chain(eigensystems, stages: Sequence[Stage], psi: np.ndarray) -> list:
    """Per stage, its eigendecomposition ``(lam, vecs)`` and the eigenbasis
    coefficients of the state it starts from: psi for the first stage, the
    end state of the stage before for each later one."""
    spectra: list = []
    for k, (lam, vecs) in enumerate(eigensystems):
        if k:
            psi = _contract(*spectra[-1], stages[k - 1].duration)
        spectra.append((lam, vecs, vecs.T @ psi))
    return spectra


def _stage_slices(boundaries: np.ndarray, times: np.ndarray) -> list[slice]:
    """One index range per stage into a sorted 1-D array of global times.
    A time on a stage boundary belongs to the later stage; times outside
    the schedule extend the first or last stage."""
    edges = [0, *np.searchsorted(times, boundaries[1:-1]), len(times)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


class _Propagator:
    """Eigendecompositions and stage-start coefficients for one schedule, so the
    amplitudes at a batch of global times cost one contraction per stage.

    ``boundaries`` are as ``_validate_schedule`` returns them, and
    ``spectra`` holds ``(lam, vecs, coeff)`` per stage, as ``_chain`` builds
    them.
    """

    def __init__(self, boundaries: np.ndarray, spectra: list):
        self.boundaries = boundaries
        self._spectra = spectra

    def stage_amplitudes(self, k: int, times: np.ndarray, rows, cols=None) -> np.ndarray:
        """Amplitudes of the state components ``rows`` under stage k's
        generator at a 1-D array of global times, with a trailing time axis;
        with ``cols``, only at ``times[cols]``, as ``_contract`` takes it."""
        lam, vecs, coeff = self._spectra[k]
        return _contract(lam[:, None], vecs[rows], coeff[:, None],
                         times - self.boundaries[k], cols)

    def amplitude_bounds(self) -> np.ndarray:
        """Per stage, ``sum_j |V[0, j] c_j|``: by the triangle inequality no
        marked-vertex amplitude in that stage has a larger modulus."""
        return np.array([np.abs(vecs[0] * coeff).sum() for _, vecs, coeff in self._spectra])

    def pair_bounds(self, k: int, times: np.ndarray) -> np.ndarray:
        """Per time of a sorted 1-D array of global times in stage k, a bound
        that the marked-vertex probability ``abs(stage_amplitudes(k, times,
        0)) ** 2`` does not exceed, float rounding included.

        With a_j = V[0, j] c_j and (i, j) the two largest |a|, the amplitude
        is at most P + R, where R is the sum of the other |a_l| and
        P**2 = |a_i|**2 + |a_j|**2 + 2 |a_i| |a_j| cos(theta), with
        theta = (lam_j - lam_i) tau + arg(a_i conj(a_j)): one cosine per
        time.  The slack, with u = eps / 2, B = sum |a|, L = max |lam| and
        T the stage's last tau (the largest, as the times are sorted):

        - ``stage_amplitudes`` rounds each phase lam tau by at most u L T,
          and its exponential, products and 7-term sum add a few eps, so it
          moves the amplitude by at most B (u L T + 12 eps);
        - theta is rounded three times from lam_j - lam_i (at most 2 L), tau
          and arg, so it is off by at most 3 eps L T + 6 eps, and P**2 by
          2 |a_i| |a_j| <= B**2 / 2 times that, plus 10 eps B**2 for the
          squares, the sums and the cosine's last bit;
        - R's five terms round by at most 8 eps B.

        So the bound is ``(sqrt(P**2 + dq) + R + e)**2 * (1 + 16 eps)``, with
        dq = B**2 eps (2 L T + 16) and e = B eps (L T + 24), both above the
        sums above.  The factor covers the last roundings of both sides: the
        bound's square root, sums, square and product, and ``abs`` and the
        square of the probability.  dq goes under the square root because
        sqrt(P**2 + dq) >= P holds however nearly the pair cancels, where a
        first-order bound on the square root's error grows without limit."""
        lam, vecs, coeff = self._spectra[k]
        tau = times - self.boundaries[k]
        terms = vecs[0] * coeff
        size = np.abs(terms)
        *others, j, i = np.argsort(size)
        total = size.sum()
        eps = np.finfo(float).eps
        drift = eps * np.abs(lam).max() * tau[-1]
        theta = (lam[j] - lam[i]) * tau + np.angle(terms[i] * np.conj(terms[j]))
        pair_sq = size[i] ** 2 + size[j] ** 2 + 2 * size[i] * size[j] * np.cos(theta)
        pair = np.sqrt(pair_sq + total**2 * (2 * drift + 16 * eps))
        return (pair + size[others].sum() + total * (drift + 24 * eps)) ** 2 * (1 + 16 * eps)

    def amplitudes(self, times: np.ndarray, rows) -> np.ndarray:
        """Amplitudes of the state components ``rows`` (an index or a slice)
        at a sorted 1-D array of global times, with a trailing time axis
        (stages assigned as in ``_stage_slices``)."""
        return np.concatenate(
            [self.stage_amplitudes(k, times[piece], rows)
             for k, piece in enumerate(_stage_slices(self.boundaries, times))],
            axis=-1,
        )

    def probability(self, row: int) -> Callable[[float], float]:
        """``p(t)``: the probability of state component ``row`` at one global
        time, which golden-section refinement calls one time at a time.  It
        picks the stage by bisecting the inner boundaries and reuses each
        stage's ``-1j * lam`` and eigenvector row, so a call is the
        operations of ``_contract`` at a scalar time, in the same order, and
        little else; ``np.abs``, not ``abs``, which rounds differently."""
        inner = self.boundaries[1:-1].tolist()
        stages = [(start, -1j * lam, vecs[row], coeff)
                  for start, (lam, vecs, coeff) in zip(self.boundaries, self._spectra)]

        def p(t: float) -> float:
            start, phase, vec, coeff = stages[bisect.bisect_right(inner, t)]
            return np.abs(vec @ (np.exp(phase * (t - start)) * coeff)) ** 2

        return p


def _stacked_probability(boundaries: np.ndarray, props: Sequence[_Propagator]):
    """``_grid_max``'s evaluator of one search per propagator, all on the
    same ``boundaries``: the marked-vertex probability of search
    ``which[n]`` at time ``ts[n]``, for all of them in one pass.

    Per search it makes ``_Propagator.probability(0)``'s operations in the
    same order, on a leading batch axis: the stage by the inner boundaries,
    the phase, ``exp``, the coefficient product, a (1, 7) @ (7, 1) product
    and ``np.abs``.  The square is each scalar's ``** 2``, as there: it
    rounds as ``pow`` does, while an array's ``** 2`` multiplies and
    differed in the last bit of about 1 value in 1,400."""
    inner = boundaries[1:-1]
    # (search, stage, 7)
    phase = -1j * np.array([[lam for lam, _, _ in prop._spectra] for prop in props])
    vec = np.array([[vecs[0] for _, vecs, _ in prop._spectra] for prop in props])
    coeff = np.array([[c for _, _, c in prop._spectra] for prop in props])

    def p(which: list[int], ts: list[float]) -> list[float]:
        t = np.array(ts)
        k = np.searchsorted(inner, t, side="right")
        evolved = np.exp(phase[which, k] * (t - boundaries[k])[:, None]) * coeff[which, k]
        amps = (vec[which, k][:, None] @ evolved[..., None])[:, 0, 0]
        return [a ** 2 for a in np.abs(amps)]

    return p


def _propagator(spec: GraphSpec, stages: Sequence[Stage], boundaries: np.ndarray) -> _Propagator:
    """The propagator of a validated schedule, starting from the equal
    superposition: one 7x7 eigensolve per stage."""
    eigensystems = [np.linalg.eigh(reduced_hamiltonian(spec, s.gamma)) for s in stages]
    return _Propagator(boundaries, _chain(eigensystems, stages, reduced_initial_state(spec)))


def run_schedule(
    spec: GraphSpec, schedule: Schedule, samples_per_stage: int = 2000
) -> TimeSeries:
    """Evolve the equal superposition through the schedule, sampling each
    stage uniformly; the state is continuous across stage boundaries."""
    if not isinstance(samples_per_stage, (int, np.integer)) or samples_per_stage < 1:
        raise ValueError("samples_per_stage must be an integer >= 1")
    stages, boundaries = _validate_schedule(spec, schedule)
    prop = _propagator(spec, stages, boundaries)
    steps = np.arange(1, samples_per_stage + 1)
    times = np.concatenate([[0.0]] + [
        start + stage.duration * steps / samples_per_stage
        for start, stage in zip(boundaries, stages) if stage.duration > 0
    ])
    amps = prop.amplitudes(times, slice(None))
    return TimeSeries(
        times=times,
        prob_a=np.abs(amps[0]) ** 2,
        prob_b=np.abs(amps[1]) ** 2,
        norm=np.linalg.norm(amps, axis=0),
        stage_boundaries=tuple(float(b) for b in prop.boundaries[1:]),
    )


def _golden(times: np.ndarray, i: int, value: float, xtol: float):
    """Golden-section search for the maximum between the neighbours of grid
    point i, as a generator: it yields each time it needs and is sent the
    value there, and returns the refined ``(time, value)``, or the grid
    point's when the refinement ends lower."""
    lo = times[max(i - 1, 0)]
    hi = times[min(i + 1, len(times) - 1)]
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = yield x1
    f2 = yield x2
    while hi - lo > xtol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = yield x2
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = yield x1
    mid = 0.5 * (lo + hi)
    f_mid = yield mid
    if value > f_mid:
        return float(times[i]), float(value)
    return float(mid), float(f_mid)


def _refine(p: Callable[[float], float], times: np.ndarray, i: int, value: float,
            xtol: float) -> tuple[float, float]:
    """One ``_golden`` search, from grid point i of value ``value``, with a
    scalar ``p(t)`` called one time at a time."""
    search = _golden(times, i, value, xtol)
    t = next(search)
    while True:
        try:
            t = search.send(p(t))
        except StopIteration as done:
            return done.value


def _grid_max(f, grid_maxima, xtol: float) -> list[tuple[float, float]]:
    """``_refine`` of many grid maxima in lockstep, through one stacked
    evaluator.

    Each of ``grid_maxima`` is ``(times, i, value)``, as ``_refine`` takes
    it.  Every step advances each open ``_golden`` search by one evaluation
    and then calls ``f(which, ts)`` once: it returns the values at the
    times ``ts``, where ``ts[n]`` belongs to search ``which[n]``.  So each
    search makes the evaluations it makes alone, and the evaluator one pass
    per step for all of them."""
    searches = [_golden(*grid_max, xtol) for grid_max in grid_maxima]
    results: list = [None] * len(searches)
    which = list(range(len(searches)))
    ts = [next(search) for search in searches]
    while which:
        open_, next_ts = [], []
        for b, value in zip(which, f(which, ts)):
            try:
                next_ts.append(searches[b].send(value))
                open_.append(b)
            except StopIteration as done:
                results[b] = done.value
        which, ts = open_, next_ts
    return results


def peak_success(spec: GraphSpec, schedule: Schedule) -> tuple[float, float]:
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
    points can be the grid maximum.  On the two-stage schedule this skips
    stage 1, which holds nearly all of the grid while its probability stays
    O(1/M).

    A stage that is not skipped and holds at least ``_PAIR_CUT_POINTS``
    grid points is cut again point by point, by the modulus of its two
    largest terms plus the sum of the others, with a slack for rounding
    derived in ``_Propagator.pair_bounds``.  The ``_PAIR_SEEDS`` points of
    largest bound are evaluated first, then only the points whose bound
    reaches the best value so far.  Stage 1 is cut this way when a detuned
    stage 2 peaks below its ``B_1**2``.  The result equals that of the
    full-grid search bit for bit.
    """
    stages, boundaries, times, pieces = _peak_frame(spec, schedule)
    return _peak(_propagator(spec, stages, boundaries), times, pieces)


def _peak_frame(
    spec: GraphSpec, schedule: Schedule
) -> tuple[list[Stage], np.ndarray, np.ndarray, list[slice]]:
    """What a peak search needs of a schedule besides its eigensystems: the
    checked stages and their boundaries, the peak grid (a uniform grid of
    ``_GRID_POINTS`` over the schedule, plus the boundaries, sorted and
    without repeats), and the grid's ``_stage_slices``."""
    stages, boundaries = _validate_schedule(spec, schedule)
    times = np.unique(np.concatenate([np.linspace(0.0, boundaries[-1], _GRID_POINTS), boundaries]))
    return stages, boundaries, times, _stage_slices(boundaries, times)


def _grid_peak(prop: _Propagator, times: np.ndarray, pieces: list[slice]) -> tuple[int, float]:
    """The grid phase of ``peak_success``: the index and value of the first
    maximum over its grid ``times``, split into the ``_stage_slices``
    ``pieces``.  Only the points that the stage and pair bounds leave are
    evaluated."""
    bounds = prop.amplitude_bounds()
    best, at = -np.inf, 0

    def evaluate(k, stage_times, cols=None):
        # stage k at stage_times[cols] (sorted), or at all stage_times
        nonlocal best, at
        values = np.abs(prop.stage_amplitudes(k, stage_times, 0, cols)) ** 2
        j = int(np.argmax(values))
        value, j = values[j], pieces[k].start + (j if cols is None else int(cols[j]))
        if value > best or (value == best and j < at):
            best, at = value, j

    for k in np.argsort(bounds)[::-1]:
        if bounds[k] ** 2 * (1 + 1e-9) < best:
            break
        stage_times = times[pieces[k]]
        if len(stage_times) >= _PAIR_CUT_POINTS:
            caps = prop.pair_bounds(k, stage_times)
            seeds = np.sort(np.argpartition(caps, -_PAIR_SEEDS)[-_PAIR_SEEDS:])
            evaluate(k, stage_times, seeds)
            caps[seeds] = -np.inf
            cols = np.flatnonzero(caps >= best)
            if cols.size:
                evaluate(k, stage_times, cols)
        elif len(stage_times):
            evaluate(k, stage_times)
    return at, best


def _peak(prop: _Propagator, times: np.ndarray, pieces: list[slice]) -> tuple[float, float]:
    """``peak_success`` on an already built propagator, its grid ``times``
    and the grid's ``_stage_slices``: the grid phase, then one ``_refine``
    with the scalar ``_Propagator.probability``."""
    i, value = _grid_peak(prop, times, pieces)
    return _refine(prop.probability(0), times, i, value, 1e-6 * prop.boundaries[-1])


def _detuned_frame(spec: GraphSpec, stage: int):
    """What every peak search of the two-stage schedule with one stage's
    gamma detuned shares: that gamma, the stage boundaries, the peak grid and
    its stage slices, and ``propagator(detuned)``, which completes the
    schedule's propagator from the detuned stage's eigensystem.

    Only that gamma moves with the detuning, so the boundaries, the grid,
    the start state and the other stage's eigensystem are built once here;
    when stage 2 is detuned, so are the stage-1 coefficients and the
    stage-1 end state."""
    if stage not in (1, 2):
        raise ValueError("stage must be 1 or 2")
    stages, boundaries, times, pieces = _peak_frame(spec, two_stage_schedule(spec))
    fixed = np.linalg.eigh(reduced_hamiltonian(spec, stages[2 - stage].gamma))
    psi = reduced_initial_state(spec)
    if stage == 2:
        head = _chain([fixed], stages[:1], psi)
        psi = _contract(*head[0], stages[0].duration)

    def propagator(detuned) -> _Propagator:
        if stage == 1:
            return _Propagator(boundaries, _chain([detuned, fixed], stages, psi))
        return _Propagator(boundaries, head + _chain([detuned], stages[1:], psi))

    return stages[stage - 1].gamma, boundaries, times, pieces, propagator


def _detuned_gamma(spec: GraphSpec, gamma: float, eps: float) -> float:
    """gamma + eps, refused first if it is not positive, then as
    ``check_generator_scale`` refuses it."""
    if gamma + eps <= 0:
        raise ValueError(f"offset {eps} drives gamma nonpositive")
    check_generator_scale(spec, gamma + eps)
    return gamma + eps


def _detuned_peak(spec: GraphSpec, stage: int) -> Callable[[float], float]:
    """``peak(eps)``: the two-stage schedule's peak success probability with one
    stage's gamma detuned by eps, on one ``_detuned_frame``.  Each call
    makes one 7x7 eigensolve, the coefficients that follow from it, and one
    ``_peak``."""
    gamma, _, times, pieces, propagator = _detuned_frame(spec, stage)

    def peak(eps: float) -> float:
        detuned = np.linalg.eigh(reduced_hamiltonian(spec, _detuned_gamma(spec, gamma, eps)))
        return _peak(propagator(detuned), times, pieces)[1]

    return peak


def width_scan(spec: GraphSpec, stage: int, offsets: Sequence[float]) -> np.ndarray:
    """Peak success probability of the two-stage schedule as one stage's gamma
    is detuned by each offset; the other stage stays at its critical value
    and is diagonalised once for the whole scan.

    The offsets run as one batch on one ``_detuned_frame``.  Every detuned
    gamma is checked first, in offset order.  Their generators are one
    (offsets, 7, 7) stack, diagonalised by one ``np.linalg.eigh``, which
    gives each matrix what a call of its own gives it.  Each offset has its
    own grid phase (``_grid_peak``), and ``_grid_max`` refines all the grid
    maxima in lockstep through one ``_stacked_probability``.  Each peak is
    bit for bit that of ``peak_success`` on its detuned schedule."""
    gamma, boundaries, times, pieces, propagator = _detuned_frame(spec, stage)
    gammas = np.array([_detuned_gamma(spec, gamma, eps) for eps in np.asarray(offsets, dtype=float)])
    lams, vecs = np.linalg.eigh(_search_generator(reduced_adjacency(spec), gammas[:, None, None]))
    props = [propagator(detuned) for detuned in zip(lams, vecs)]
    grid_maxima = [(times, *_grid_peak(prop, times, pieces)) for prop in props]
    peaks = _grid_max(_stacked_probability(boundaries, props), grid_maxima, 1e-6 * boundaries[-1])
    return np.array([p for _, p in peaks])


def stage_half_width(spec: GraphSpec, stage: int) -> float:
    """Smallest positive gamma detuning that halves the peak success
    probability.

    The search starts from the closed form ``theory.half_width``; the
    numeric value is 0.92-1.0 times it at M = 4000 and w <= 3, and 0.5-1.6
    times it down to M = 10.  From there it steps by factors of 1.5, down
    while the peak is at most half its undetuned value and up while it is
    above, until two neighbouring steps bracket the halving, and solves
    peak(eps) = half on that bracket by ITP (``spectral._itp``) until it is
    1e-10 relative wide.  peak(eps) carries the golden refinement's xtol of
    1e-6 of the schedule, so two correct searches agree to 2e-10 relative
    up to M = 5000 but differ by up to 4e-9 at M = 20,000 and 6e-9 at
    M = 64,000.  A step below 1e-12 M^-1.5 or above 10 / sqrt(M) is refused.
    A seed that is not positive and below 10 / sqrt(M) is replaced by
    1e-3 M^-1.5, so the closed form saves work but does not decide the
    result.  At M = 500, w = 1 that is 11 or 12 peak searches per stage.
    """
    peak = _detuned_peak(spec, stage)
    half = peak(0.0) / 2
    scale = spec.M ** -1.5
    ceiling = 10.0 / math.sqrt(spec.M)
    eps = theory.half_width(spec, stage)
    if not 0 < eps < ceiling:
        eps = 1e-3 * scale
    p = peak(eps)
    above = p > half
    while True:
        step = eps * 1.5 if above else eps / 1.5
        if step > ceiling:
            raise RuntimeError("no halving detuning found below 10/sqrt(M)")
        if step < 1e-12 * scale:
            raise RuntimeError("peak success is degraded at arbitrarily small detuning")
        p_step = peak(step)
        if (p_step > half) != above:
            break
        eps, p = step, p_step
    (lo, p_lo), (hi, p_hi) = sorted([(eps, p), (step, p_step)])
    return _itp(lambda eps: peak(eps) - half, lo, hi, p_lo - half, p_hi - half, 1e-10)


def optimal_stage1_duration(spec: GraphSpec) -> tuple[float, float]:
    """Stage-1 duration that maximizes the marked-cluster probability.

    Scans prob_b under the stage-1 generator of ``two_stage_schedule`` on
    20,001 points of [0, 1.6 t1] and refines the best grid point by
    golden-section search.  The measured optimum differs from the
    closed-form t1 by the subleading corrections the closed form drops.
    """
    gamma, t1 = two_stage_schedule(spec)[0]
    window = 1.6 * t1
    prop = _propagator(spec, *_validate_schedule(spec, [Stage(gamma, window)]))
    times = np.linspace(0.0, window, 20_001)
    values = np.abs(prop.amplitudes(times, 1)) ** 2
    i = int(np.argmax(values))
    return _refine(prop.probability(1), times, i, values[i], 1e-9 * t1)
