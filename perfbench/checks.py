"""Per-request correctness checks.

A request fails if the program raised, returned a nonzero exit code, broke
one of the invariants below, or deviated from the independent reference
values of :mod:`reference` by more than the tolerances here.  Checks run
outside the timed region.

Tolerances sit well above float-reordering noise and well below any real
defect:

- exactly computable values (time series, overlaps, connectivity) must match
  the reference to 1e-9 absolute, widened for overlaps by the eigenvector
  conditioning 1e-13 / gap near an avoided crossing;
- values echoed on a grid the request defines (sample times, gammas,
  detunings) must match to 1e-11 relative, twice the 12-digit rounding;
- a peak success probability comes from a golden-section search stopped at
  1e-6 of the schedule length, which leaves up to about 1e-6 of error at
  M = 5000, so it must match the reference peak to 1e-5.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

import reference
from workloads import CLI_KINDS, Request

TOL_REF = 1e-9
TOL_NORM = 1e-10
TOL_GRID = 1e-11
TOL_PEAK = 1e-5
#: Relative step either side of a reported crossing at which the overlap
#: difference must have opposite signs, and of a reported half-width at
#: which the peak must sit above and below half its baseline.
CROSSING_STEP = 1e-8
HALF_WIDTH_STEP = 1e-3


@dataclass
class Outcome:
    """What one request produced: a CLI exit code and output text, or an API
    return value, or the exception the program raised."""

    code: int | None = None
    text: str | None = None
    value: object = None
    error: str | None = None


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    max_dev: float = 0.0
    norm_drift: float = 0.0


class CheckFailed(Exception):
    pass


def check(req: Request, out: Outcome) -> Verdict:
    """Verdict on one request's outcome."""
    if out.error is not None:
        return Verdict(False, f"raised {out.error}")
    if req.kind in CLI_KINDS:
        if out.code != 0:
            return Verdict(False, f"exit code {out.code}")
        if out.text is None:
            return Verdict(False, "no output written")
    try:
        return _CHECKS[req.kind](req, out)
    except CheckFailed as exc:
        return Verdict(False, str(exc))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(False, f"unreadable output: {exc!r}")


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _deviation(got: np.ndarray, want: np.ndarray, tol, what: str) -> float:
    dev = np.abs(np.asarray(got) - np.asarray(want))
    worst = int(np.argmax(dev - tol))
    _require(bool(np.all(dev <= tol)), f"{what} deviates from the reference by "
             f"{dev.flat[worst]:.3e} at row {worst}")
    return float(np.max(dev)) if dev.size else 0.0


def _same_grid(got: np.ndarray, want: np.ndarray, what: str) -> None:
    _deviation(got, want, TOL_GRID * np.abs(want), what)


def _probabilities(values: np.ndarray, what: str) -> None:
    _require(bool(np.all((values >= 0.0) & (values <= 1.0))), f"{what} outside [0, 1]")


def _csv(text: str, header: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    _require(bool(lines) and lines[0] == header, f"CSV header is not {header!r}")
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _check_evolve(req: Request, out: Outcome) -> Verdict:
    rows = _csv(out.text, "t,prob_a,prob_b,norm")
    prop = reference.Propagation(req.M, req.w, reference.critical_schedule(req.M, req.w))
    times = prop.sample_times(req.params["samples"])
    _require(rows.shape == (times.size, 4), f"{rows.shape[0]} rows, expected {times.size}")
    _same_grid(rows[:, 0], times, "t")
    prob_a, prob_b, norm = rows[:, 1], rows[:, 2], rows[:, 3]
    _probabilities(prob_a, "prob_a")
    _probabilities(prob_b, "prob_b")
    drift = float(np.max(np.abs(norm - 1.0)))
    _require(drift <= TOL_NORM, f"norm drifts {drift:.3e} from 1")
    amps = prop.amplitudes(times)
    dev = max(
        _deviation(prob_a, np.abs(amps[:, 0]) ** 2, TOL_REF, "prob_a"),
        _deviation(prob_b, np.abs(amps[:, 1]) ** 2, TOL_REF, "prob_b"),
        _deviation(norm, np.linalg.norm(amps, axis=1), TOL_REF, "norm"),
    )
    return Verdict(True, max_dev=dev, norm_drift=drift)


_SWEEP_HEADER = "gamma," + ",".join(f"{tag}_{k}" for tag in "sab" for k in range(7))


def _check_sweep(req: Request, out: Outcome) -> Verdict:
    p = req.params
    rows = _csv(out.text, _SWEEP_HEADER)
    gammas = np.linspace(p["lo"], p["hi"], p["points"])
    _require(rows.shape == (gammas.size, 22), f"sweep table has shape {rows.shape}")
    _same_grid(rows[:, 0], gammas, "gamma")
    curves, gaps = reference.sweep_curves(req.M, req.w, gammas)
    tol = TOL_REF + 1e-13 / gaps[:, None]
    dev = 0.0
    for i, tag in enumerate("sab"):
        got = rows[:, 1 + 7 * i: 8 + 7 * i]
        _probabilities(got, f"{tag} overlaps")
        total = np.max(np.abs(got.sum(axis=1) - 1.0))
        _require(total <= TOL_REF, f"{tag} overlaps sum to 1 only within {total:.3e}")
        dev = max(dev, _deviation(got, curves[tag], tol, f"{tag} overlaps"))
    return Verdict(True, max_dev=dev)


def _width_grid(p: dict) -> np.ndarray:
    per_side = (p["offsets"] - 1) // 2
    positive = np.logspace(np.log10(p["eps_lo"]), np.log10(p["eps_hi"]), per_side)
    return np.concatenate([-positive[::-1], [0.0], positive])


def _check_width(req: Request, out: Outcome) -> Verdict:
    p = req.params
    rows = _csv(out.text, "epsilon,p_peak")
    eps = _width_grid(p)
    _require(rows.shape == (eps.size, 2), f"width table has shape {rows.shape}")
    _same_grid(rows[:, 0], eps, "epsilon")
    _probabilities(rows[:, 1], "p_peak")
    # A reference peak costs a few milliseconds, so five spread-out offsets,
    # the undetuned centre among them, stand for the whole grid.
    picks = np.unique(np.linspace(0, eps.size - 1, 5).round().astype(int))
    want = [reference.detuned_peak(req.M, req.w, p["stage"], eps[i]) for i in picks]
    dev = _deviation(rows[picks, 1], np.array(want), TOL_PEAK, "p_peak")
    return Verdict(True, max_dev=dev)


def _check_crossing(req: Request, out: Outcome) -> Verdict:
    p = req.params
    gamma = float(out.value)
    tag, pair = p["probe"], p["pair"]
    closed = reference.critical_gamma(req.M, req.w, 1 if tag == "s" else 2)
    _require(p["lo"] <= gamma <= p["hi"], f"crossing {gamma:g} outside its bracket")
    _require(abs(gamma / closed - 1.0) <= 0.05,
             f"crossing {gamma:g} is not within 5% of the closed form {closed:g}")
    below = reference.overlap_split(req.M, req.w, tag, pair, gamma * (1 - CROSSING_STEP))
    above = reference.overlap_split(req.M, req.w, tag, pair, gamma * (1 + CROSSING_STEP))
    _require((below[0] - below[1]) * (above[0] - above[1]) <= 0.0,
             f"overlap difference keeps its sign across {gamma:g}")
    at = reference.overlap_split(req.M, req.w, tag, pair, gamma)
    _require(max(abs(at[0] - 0.5), abs(at[1] - 0.5)) <= 0.1,
             f"overlaps {at[0]:.4f}, {at[1]:.4f} at the crossing are not a half split")
    return Verdict(True)


def _check_half_width(req: Request, out: Outcome) -> Verdict:
    stage = req.params["stage"]
    eps = float(out.value)
    gamma_c = reference.critical_gamma(req.M, req.w, stage)
    _require(0.0 < eps < gamma_c, f"half-width {eps:g} outside (0, gamma_c={gamma_c:g})")
    half = 0.5 * reference.detuned_peak(req.M, req.w, stage, 0.0)
    inner = reference.detuned_peak(req.M, req.w, stage, eps * (1 - HALF_WIDTH_STEP))
    outer = reference.detuned_peak(req.M, req.w, stage, eps * (1 + HALF_WIDTH_STEP))
    _require(inner >= half - TOL_PEAK and outer <= half + TOL_PEAK,
             f"peak does not pass half its baseline at the half-width {eps:g}")
    return Verdict(True)


_VERIFY_HEADER = re.compile(r"# verify M=(\d+) w=(\S+) gamma=(\S+)$")


def _check_verify(req: Request, out: Outcome) -> Verdict:
    lines = out.text.splitlines()
    header = _VERIFY_HEADER.match(lines[0])
    _require(header is not None, "verify header missing")
    _require(int(header.group(1)) == req.M, "verify ran at another M")
    gamma = float(header.group(3))
    closed = reference.critical_gamma(req.M, req.w, 1)
    _same_grid(np.array([gamma]), np.array([closed]), "verify gamma")
    results = lines[1:-1]
    _require(len(results) >= 4, f"only {len(results)} verify checks")
    failed = [line for line in results if not line.startswith("PASS ")]
    _require(not failed, f"verify line is not PASS: {failed[:1]}")
    n = len(results)
    _require(lines[-1] == f"{n}/{n} checks passed", f"verify summary {lines[-1]!r}")
    return Verdict(True)


def _check_connectivity(req: Request, out: Outcome) -> Verdict:
    doc = json.loads(out.text)
    M, w = req.M, req.w
    lambda1, op_norm = reference.connectivity_closed_form(M, w)
    _require(doc["M"] == M and doc["w"] == w, "connectivity ran on another graph")
    _same_grid(np.array([doc["lambda1_closed_form"], doc["op_norm_closed_form"]]),
               np.array([lambda1, op_norm]), "closed forms")
    dev = max(
        _deviation(doc["lambda1"], lambda1, 1e-8, "lambda1"),
        _deviation(doc["op_norm"], op_norm, 1e-8, "op_norm"),
    )
    degree = M - 1.0 + w
    _require(math.isclose(doc["normalized_connectivity"], doc["lambda1"] / degree,
                          rel_tol=TOL_GRID), "normalized connectivity is not lambda1 / degree")
    return Verdict(True, max_dev=dev)


_CHECKS = {
    "evolve": _check_evolve,
    "sweep": _check_sweep,
    "width": _check_width,
    "crossing": _check_crossing,
    "half_width": _check_half_width,
    "verify": _check_verify,
    "connectivity": _check_connectivity,
}
