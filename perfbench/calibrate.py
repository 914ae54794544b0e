"""Machine-speed calibration of request latencies.

The benchmark runs on shared machines whose speed drifts: for a minute or
more at a time, every CPU-bound task can run 1.5 to 1.8 times slower, and a
run lasts less than such a phase.  Taking the fastest of several sends does
not help when every send of a run falls in one slow phase, so raw latencies
spread from run to run by more than any useful bound.

The benchmark therefore times a fixed kernel between requests.  The kernel
does the kind of work the workload's requests do, in plain numpy and without
simplexwalk, from two parts: an interpreter-bound loop of small complex
vector operations and float formatting (like the per-sample loop and the
peak searches), and dense symmetric eigensolves (like the full-space route).
A latency measured while the kernel took ``k`` seconds is reported as
``latency * reference_s / k``: the latency the request would have had on a
machine that runs the kernel in ``reference_s``.  A slower program still
reads slower; a slower machine does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from reference import _eigh

_PHASES = np.arange(7.0)
_SYM = np.random.default_rng(0).standard_normal((160, 160))
_SYM = _SYM + _SYM.T


def _interpreted() -> None:
    state = np.ones(7, dtype=complex) / np.sqrt(7.0)
    rows = []
    for i in range(1000):
        amps = np.exp(-1j * 1e-3 * i * _PHASES) * state
        rows.append(f"{float(abs(amps[0]) ** 2):.12g},{0.5 * i:.12g}")


def _lapack() -> None:
    for _ in range(2):
        _eigh(_SYM)


#: The kernel's parts and the time each takes on an Intel Xeon (2 vCPUs,
#: numpy 2.4, one BLAS thread) in a quiet phase.  Reported latencies are
#: scaled to this machine speed.
PARTS = {"interpreted": (_interpreted, 0.0030), "lapack": (_lapack, 0.0040)}

#: The parts each workload's kernel runs.  The full-space route spends its
#: time in LAPACK and slows with it; the other two mix both kinds of work.
WORKLOAD_PARTS = {
    "timeseries": ("interpreted", "lapack"),
    "scan": ("interpreted", "lapack"),
    "fullspace": ("lapack",),
}


class Kernel:
    """The calibration kernel of one workload."""

    def __init__(self, workload: str):
        self.parts = [PARTS[name] for name in WORKLOAD_PARTS[workload]]
        self.reference_s = sum(ref for _, ref in self.parts)

    def time(self) -> float:
        """Seconds one run of the kernel takes now."""
        start = time.perf_counter()
        for part, _ in self.parts:
            part()
        return time.perf_counter() - start

    def scale(self, kernel_times: list[float]) -> float:
        """Factor that turns latencies measured alongside these kernel
        times into latencies at the reference speed."""
        return self.reference_s / statistics.median(kernel_times)
