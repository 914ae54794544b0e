"""Independent reference values for the benchmark's correctness checks.

Everything here is written from the paper's closed forms and the 7 x 7
class-basis template, in vectorized numpy.  It imports nothing from
simplexwalk, so a defect in the program's reduction, propagation or search
shows up as a deviation from these values instead of being reproduced by them.
"""

from __future__ import annotations

import math

import numpy as np

# Bound at import so that the benchmark's own eigensolves never show up in a
# trace, even while numpy.linalg.eigh is wrapped.
_eigh = np.linalg.eigh

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Grid size that the program's peak search documents (uniform grid over the
#: whole schedule plus the stage boundaries).
PEAK_GRID_POINTS = 10_000


def critical_gamma(M: int, w: float, stage: int) -> float:
    """gamma_c1 = (1 + 1/w) / M and gamma_c2 = 1 / M."""
    return (1.0 + 1.0 / w) / M if stage == 1 else 1.0 / M


def critical_schedule(M: int, w: float) -> list[tuple[float, float]]:
    """(gamma_c1, pi / gap1) then (gamma_c2, pi / gap2)."""
    gap1 = 2.0 * (1.0 + w) / M**1.5
    gap2 = 2.0 / math.sqrt(M)
    return [
        (critical_gamma(M, w, 1), math.pi / gap1),
        (critical_gamma(M, w, 2), math.pi / gap2),
    ]


def connectivity_closed_form(M: int, w: float) -> tuple[float, float]:
    """Algebraic connectivity and adjacency operator norm of the graph."""
    lambda1 = 0.5 * (M + 2.0 * w - math.sqrt(M * M - 4.0 * w + 4.0 * w * w))
    return lambda1, M + w - 1.0


def hamiltonian(M: int, w: float, gammas) -> np.ndarray:
    """Reduced search generator -gamma * A - |a><a|, one 7 x 7 per gamma.

    Returns shape (7, 7) for a scalar gamma and (P, 7, 7) for P gammas.
    """
    s1 = math.sqrt(M - 1.0)
    s2 = math.sqrt(M - 2.0)
    adj = np.zeros((7, 7))
    for i, j, value in (
        (0, 1, s1), (0, 2, w), (1, 4, w), (2, 3, s1), (3, 5, w),
        (4, 5, 1.0), (4, 6, s2), (5, 6, s2),
    ):
        adj[i, j] = adj[j, i] = value
    adj[1, 1] = adj[3, 3] = M - 2.0
    adj[6, 6] = M - 3.0 + w
    gammas = np.asarray(gammas, dtype=float)
    ham = -gammas[..., None, None] * adj
    ham[..., 0, 0] -= 1.0
    return ham


def initial_state(M: int) -> np.ndarray:
    """Equal superposition over all M (M + 1) vertices, in the class basis."""
    s1 = math.sqrt(M - 1.0)
    amps = np.array([1.0, s1, 1.0, s1, s1, s1, math.sqrt((M - 1.0) * (M - 2.0))])
    return (amps / math.sqrt(M * (M + 1.0))).astype(complex)


def probe(M: int, tag: str) -> np.ndarray:
    if tag == "s":
        return initial_state(M)
    vec = np.zeros(7, dtype=complex)
    vec["ab".index(tag)] = 1.0
    return vec


class Propagation:
    """Exact piecewise-constant evolution of the equal superposition."""

    def __init__(self, M: int, w: float, schedule: list[tuple[float, float]]):
        self.boundaries = np.concatenate([[0.0], np.cumsum([d for _, d in schedule])])
        self.durations = [d for _, d in schedule]
        self.stages = []
        psi = initial_state(M)
        for gamma, duration in schedule:
            lam, vecs = _eigh(hamiltonian(M, w, gamma))
            coeff = vecs.T @ psi
            self.stages.append((lam, vecs, coeff))
            psi = vecs @ (np.exp(-1j * lam * duration) * coeff)

    @property
    def total(self) -> float:
        return float(self.boundaries[-1])

    def amplitudes(self, times: np.ndarray) -> np.ndarray:
        """Class amplitudes at each global time, shape (T, 7)."""
        times = np.asarray(times, dtype=float)
        idx = np.clip(
            np.searchsorted(self.boundaries, times, side="right") - 1,
            0,
            len(self.stages) - 1,
        )
        out = np.empty((times.size, 7), dtype=complex)
        for k, (lam, vecs, coeff) in enumerate(self.stages):
            sel = idx == k
            tau = times[sel] - self.boundaries[k]
            out[sel] = (np.exp(-1j * np.outer(tau, lam)) * coeff) @ vecs.T
        return out

    def sample_times(self, samples: int) -> np.ndarray:
        """t = 0, then `samples` uniform steps ending at each stage's end."""
        times = [np.zeros(1)]
        for k, duration in enumerate(self.durations):
            if duration > 0.0:
                steps = duration * np.arange(1, samples + 1) / samples
                times.append(self.boundaries[k] + steps)
        return np.concatenate(times)

    def success(self, t: float) -> float:
        return float(np.abs(self.amplitudes(np.array([t]))[0, 0]) ** 2)

    def peak(self) -> float:
        """Largest marked-vertex probability: the best point of the documented
        uniform grid, refined by golden-section search to 1e-12 of the
        schedule length."""
        total = self.total
        times = np.unique(
            np.concatenate([np.linspace(0.0, total, PEAK_GRID_POINTS), self.boundaries])
        )
        probs = np.abs(self.amplitudes(times)[:, 0]) ** 2
        i = int(np.argmax(probs))
        lo = times[max(i - 1, 0)]
        hi = times[min(i + 1, len(times) - 1)]
        x1, x2 = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
        f1, f2 = self.success(x1), self.success(x2)
        while hi - lo > 1e-12 * total:
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _INV_PHI * (hi - lo)
                f2 = self.success(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _INV_PHI * (hi - lo)
                f1 = self.success(x1)
        return max(float(probs[i]), f1, f2)


def detuned_peak(M: int, w: float, stage: int, eps: float) -> float:
    """Peak success of the critical schedule with one stage's gamma + eps."""
    schedule = critical_schedule(M, w)
    gamma, duration = schedule[stage - 1]
    schedule[stage - 1] = (gamma + eps, duration)
    return Propagation(M, w, schedule).peak()


def sweep_curves(
    M: int, w: float, gammas: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Squared overlaps of the s, a and b probes with the seven eigenstates at
    each gamma, shape (P, 7) per probe, and each row's smallest eigengap."""
    lam, vecs = _eigh(hamiltonian(M, w, gammas))
    curves = {
        tag: np.abs(np.einsum("pik,i->pk", vecs, probe(M, tag))) ** 2 for tag in "sab"
    }
    return curves, np.min(np.diff(lam, axis=1), axis=1)


def overlap_split(
    M: int, w: float, tag: str, pair: tuple[int, int], gamma: float
) -> tuple[float, float]:
    """The probe's squared overlaps with eigenstates pair[0] and pair[1]."""
    curves, _ = sweep_curves(M, w, np.array([gamma]))
    row = curves[tag][0]
    return float(row[pair[0]]), float(row[pair[1]])
