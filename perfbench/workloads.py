"""Seeded request streams for the three workloads.

Each workload is an endless stream of blocks of requests, and a run measures
whole blocks.  Every block has the same shape, so the mix of small and large
requests is the same whatever the seed; the seed moves sizes inside their
strata, picks the weights and sets the order.

Two rules keep the latency percentiles steady from run to run, although the
number of blocks that fit in a run varies:

- sizes that vary are drawn by stratified sampling (one point from each of n
  equal strata, shuffled), so every block spans the whole range;
- each block holds a group of equally large requests that is big enough to
  hold the request the tail is read at (the 11th slowest), and the median
  falls inside a range of sizes rather than on a jump between two.

- ``timeseries``: ``evolve`` requests, dense sampling plus CSV output.
- ``scan``: ``sweep`` and ``width`` commands plus API ``find_crossing`` and
  ``stage_half_width`` calls, many small 7 x 7 eigensolves and peak searches.
- ``fullspace``: ``verify`` and ``connectivity`` commands, the only route
  through the dense N x N graph and its LAPACK eigensolves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from reference import critical_gamma

#: Commands sent through ``simplexwalk.cli.main``; the rest are API calls.
CLI_KINDS = ("evolve", "sweep", "width", "verify", "connectivity")

#: The request kinds each workload sends.
KINDS = {
    "timeseries": ("evolve",),
    "scan": ("crossing", "sweep", "width", "half_width"),
    "fullspace": ("verify", "connectivity"),
}
WORKLOADS = tuple(KINDS)

WEIGHTS = (0.5, 1.0, 2.0, 3.0)


@dataclass(frozen=True)
class Request:
    kind: str
    M: int
    w: float
    params: dict = field(default_factory=dict, hash=False)

    def argv(self) -> list[str]:
        """Command-line arguments of a CLI request, without ``--out``."""
        p = self.params
        argv = [self.kind, "--M", str(self.M), "--w", repr(self.w)]
        if self.kind == "evolve":
            argv += ["--samples", str(p["samples"])]
        elif self.kind == "sweep":
            argv += ["--lo", repr(p["lo"]), "--hi", repr(p["hi"]), "--points", str(p["points"])]
        elif self.kind == "width":
            argv += [
                "--stage", str(p["stage"]), "--offsets", str(p["offsets"]),
                "--eps-lo", repr(p["eps_lo"]), "--eps-hi", repr(p["eps_hi"]),
            ]
        return argv


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one in each stratum [k/n, (k+1)/n), shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _timeseries_block(rng: random.Random) -> list[Request]:
    # M log-uniform over 200-5000; the cost is the per-sample loop and the
    # CSV write, so samples per stage set the size: three drawn from
    # 500-2000, three at 2500 (the median group) and three at 5000 (the
    # tail group).
    weights = list(WEIGHTS) * 2 + [rng.choice(WEIGHTS)]
    rng.shuffle(weights)
    samples = [round(_log_uniform(u, 500, 2000)) for u in _strata(rng, 3)]
    samples += [2500] * 3 + [5000] * 3
    rng.shuffle(samples)
    return [
        Request("evolve", round(_log_uniform(u, 200, 5000)), w, {"samples": n})
        for u, w, n in zip(_strata(rng, 9), weights, samples)
    ]


def _scan_block(rng: random.Random) -> list[Request]:
    # From the cheapest: five crossings, five sweeps of 500 points (the
    # median group), four widths of 21 offsets (the tail group) and one
    # half-width, which makes about 80 peak searches whatever M and w and
    # so lies beyond the tail.
    kinds = ["crossing_s", "crossing_b"] * 2 + [rng.choice(("crossing_s", "crossing_b"))]
    kinds += ["sweep"] * 5 + ["width_1", "width_2"] * 2
    kinds += [rng.choice(("half_width_1", "half_width_2"))]
    block = []
    for kind, u in zip(kinds, _strata(rng, len(kinds))):
        M = round(_log_uniform(u, 200, 5000))
        w = rng.choice(WEIGHTS)
        if kind.startswith("crossing"):
            tag = kind[-1]
            centre = critical_gamma(M, w, 1 if tag == "s" else 2)
            block.append(Request("crossing", M, w, {
                "probe": tag,
                "pair": (0, 1) if tag == "s" else (0, 3),
                "lo": centre * (1.0 - rng.uniform(0.03, 0.06)),
                "hi": centre * (1.0 + rng.uniform(0.03, 0.06)),
            }))
        elif kind == "sweep":
            centre = critical_gamma(M, w, rng.choice((1, 2)))
            half = rng.uniform(0.05, 0.2) * centre
            block.append(Request("sweep", M, w, {
                "lo": centre - half, "hi": centre + half,
                "points": 500,
            }))
        elif kind.startswith("width"):
            stage = int(kind[-1])
            scale = M ** -1.5
            block.append(Request("width", M, w, {
                "stage": stage,
                "offsets": 21,
                "eps_lo": 1e-3 * scale * rng.uniform(0.5, 2.0),
                "eps_hi": min(1e2 * scale * rng.uniform(0.5, 1.0),
                              0.5 * critical_gamma(M, w, stage)),
            }))
        else:
            block.append(Request("half_width", M, w, {"stage": int(kind[-1])}))
    rng.shuffle(block)
    return block


#: Cluster sizes of one fullspace block.  The cost grows as M^6, so sizes
#: are fixed rather than drawn, and each group is of one kind, so that its
#: requests cost the same.  From the top: one verify at M = 22 beyond the
#: tail; the tail group of four verify at 18; the median group of four
#: connectivity at 23; five small.
_VERIFY_M = (22, 18, 18, 18, 18, 12, 10, 10)
_CONNECTIVITY_M = (23, 23, 23, 23, 18, 14)


def _fullspace_block(rng: random.Random) -> list[Request]:
    block = [Request("verify", M, rng.choice(WEIGHTS)) for M in _VERIFY_M]
    block += [Request("connectivity", M, rng.choice(WEIGHTS)) for M in _CONNECTIVITY_M]
    rng.shuffle(block)
    return block


_BLOCKS: dict[str, Callable[[random.Random], list[Request]]] = {
    "timeseries": _timeseries_block,
    "scan": _scan_block,
    "fullspace": _fullspace_block,
}


def blocks(workload: str, seed: int) -> Iterator[list[Request]]:
    """The endless stream of request blocks of one workload; the same seed
    gives the same requests in the same order."""
    block = _BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield block(rng)
