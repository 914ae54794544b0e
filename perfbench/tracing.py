"""Outside-in tracing of the program's layers.

The tracer wraps the program's public functions where they are bound, not
where they are defined: a function imported into several modules (for
example ``subspace.reduced_hamiltonian``, which ``dynamics`` and ``spectral``
import by name) gets the same wrapper at every binding site, so each call is
caught whichever module makes it.  ``numpy.linalg.eigh`` and ``eigvalsh``
are wrapped too and bucketed as 7 x 7 or N x N.  The program's code is not
changed.

Each call becomes a span (name, parent span, request, start, end), kept in
memory and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children.  Spans are recorded
only while a request is active, so the benchmark's own checks stay out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, parent span index or -1, request index, start, end)
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             observe: Callable | None = None) -> Callable:
        """A wrapper of fn that records a span named `name` (or `name(*args)`)
        and hands (tracer, args, kwargs, result) to `observe`."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            nid = tracer._name_id(name(*args, **kwargs) if callable(name) else name)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.spans[index] = (nid, parent, tracer.request, start, end)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def run(self, name: str, fn: Callable):
        """Call fn() inside one span named `name`, such as a whole request."""
        return self.wrap(fn, name)()

    def install(self, package: ModuleType, modules: list[ModuleType]) -> None:
        """Wrap every public function of the program's modules at every
        binding site in `modules` and `package`, plus numpy's symmetric
        eigensolvers.  Of the CLI module only ``main`` is wrapped, so the
        CLI's own work (parsing, formatting, the atomic write) is the self
        time of its entry point."""
        originals: dict[int, tuple[Callable, str]] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(value)
                    and (short != "cli" or attr == "main")
                ):
                    originals[id(value)] = (value, f"{short}.{attr}")
        wrappers = {
            key: self.wrap(fn, name, _OBSERVERS.get(name))
            for key, (fn, name) in originals.items()
        }
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)])
        for solver in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, solver)
            self._patch(np.linalg, solver, self.wrap(fn, _bucket(solver)))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- aggregation ------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for nid, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (nid, _, _, start, end) in enumerate(self.spans):
            entry = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        target, above = self._name_ids[name], self._name_ids[ancestor]
        count = 0
        for nid, parent, *_ in self.spans:
            if nid != target:
                continue
            while parent >= 0:
                if self.spans[parent][0] == above:
                    count += 1
                    break
                parent = self.spans[parent][1]
        return count

    def write(self, path) -> None:
        """One JSON array per line: [span, parent, request, name, start, end]."""
        with open(path, "w") as handle:
            for i, (nid, parent, request, start, end) in enumerate(self.spans):
                handle.write(json.dumps([i, parent, request, self.names[nid], start, end]))
                handle.write("\n")


def _bucket(solver: str) -> Callable[..., str]:
    def name(matrix, *args, **kwargs) -> str:
        size = np.shape(matrix)[-1]
        return f"linalg.{solver}{7 if size == 7 else 'N'}"

    return name


def _observe_run_schedule(tracer: Tracer, args, kwargs, series) -> None:
    tracer.counters["dynamics.run_schedule.samples"] += len(series.times)
    drift = float(np.max(np.abs(np.asarray(series.norm) - 1.0)))
    tracer.maxima["dynamics.norm_drift_max"] = max(tracer.maxima["dynamics.norm_drift_max"], drift)


def _observe_evolve(tracer: Tracer, args, kwargs, state) -> None:
    before = np.linalg.norm(np.asarray(args[1] if len(args) > 1 else kwargs["state"]))
    drift = float(abs(np.linalg.norm(state) - before))
    tracer.maxima["dynamics.norm_drift_max"] = max(tracer.maxima["dynamics.norm_drift_max"], drift)


_OBSERVERS = {
    "dynamics.run_schedule": _observe_run_schedule,
    "dynamics.evolve": _observe_evolve,
}
