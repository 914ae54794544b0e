"""Benchmark of the simplexwalk toolkit: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload timeseries --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in this process: the next
request is sent when the previous one has returned.  CLI requests call
``simplexwalk.cli.main(argv + ["--out", path])`` in-process, API requests call
the package's top-level functions.  Every request's output is checked against
invariants and independent reference values (see ``checks.py``) outside the
timed region.  ``--seconds`` is the summed latency of all timed sends.
Latencies are reported at a reference machine speed (see ``calibrate.py``).

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run; ``BENCHMARK.json``
names both sets.  ``README.md`` in this directory maps each layer metric to
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import os

# One client, one thread: BLAS is pinned before numpy loads, so that runs on
# a shared machine do not contend with themselves.
BLAS_THREADS = 1
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import importlib
import json
import platform
import pkgutil
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
import checks
import tracing
import workloads
from checks import Outcome, Verdict

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_out"

#: Each timed request is sent this many times, in rounds a few seconds
#: apart, and its latency is the median of its sends, each scaled to the
#: reference speed by the calibration kernel timed during its round.
ROUNDS = 6
#: The calibration kernel runs after every block of the first round and
#: after every this many requests of the later rounds.
CALIBRATE_EVERY = 5
#: Fresh interpreters started to time set-up before the first round and
#: after each round, so that set-up is sampled across the whole run.  One
#: more, which also compiles bytecode, is started first and discarded.
SETUP_PER_ROUND = 2
#: Kernel runs before and after each group of set-up interpreters, to scale
#: their times to the reference speed.
SETUP_CALIBRATIONS = 3
#: The tail latency is read at the highest percentile that still has this
#: many requests beyond it.
TAIL_BEYOND = 10

SETUP_CODE = """\
import time
start = time.perf_counter()
import simplexwalk.cli
simplexwalk.cli.main(["--help"])
print(time.perf_counter() - start)
"""


class ProgramMissing(Exception):
    pass


@dataclass
class Program:
    package: object
    cli: object
    modules: list


@dataclass
class Record:
    request: workloads.Request
    latencies: list[float]
    verdict: Verdict
    digest: str
    bytes_out: int

    @property
    def latency(self) -> float:
        return statistics.median(self.latencies)


def load_program() -> Program:
    """Import simplexwalk from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "simplexwalk" / "__init__.py").is_file():
        raise ProgramMissing(f"no simplexwalk package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("simplexwalk")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"simplexwalk was imported from {package.__file__}")
    modules = [
        importlib.import_module(f"simplexwalk.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    ]
    return Program(package, importlib.import_module("simplexwalk.cli"), modules)


class Runner:
    """Sends one request at a time and times the call alone."""

    def __init__(self, program: Program, work_dir: Path):
        self.program = program
        self.out = work_dir / "out"

    def _call(self, req: workloads.Request):
        sw, cli, p = self.program.package, self.program.cli, req.params
        if req.kind in workloads.CLI_KINDS:
            argv = req.argv() + ["--out", str(self.out)]
            return lambda: cli.main(argv)
        if req.kind == "crossing":
            return lambda: sw.find_crossing(
                sw.GraphSpec(M=req.M, w=req.w), p["probe"], p["pair"], (p["lo"], p["hi"])
            )
        return lambda: sw.stage_half_width(sw.GraphSpec(M=req.M, w=req.w), p["stage"])

    def execute(self, req: workloads.Request, tracer: tracing.Tracer | None = None,
                index: int = 0) -> tuple[float, Outcome]:
        call = self._call(req)
        if tracer is not None:
            tracer.request = index
            untraced = call
            call = lambda: tracer.run(f"request.{req.kind}", untraced)  # noqa: E731
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the program raising is a failed request
            latency = time.perf_counter() - start
            return latency, Outcome(error=f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.request = None
        latency = time.perf_counter() - start
        if req.kind not in workloads.CLI_KINDS:
            return latency, Outcome(value=result)
        text = self.out.read_text() if self.out.exists() else None
        self.out.unlink(missing_ok=True)
        return latency, Outcome(code=result, text=text)


def _digest(out: Outcome) -> str:
    payload = out.text if out.text is not None else repr((out.code, out.value, out.error))
    return hashlib.sha256(payload.encode()).hexdigest()


def _record(runner: Runner, req: workloads.Request) -> Record:
    latency, out = runner.execute(req)
    size = len(out.text.encode()) if out.text is not None else 0
    verdict = checks.check(req, out)
    return Record(req, [latency], verdict, _digest(out), size)


def _calibrate(records: list[Record], kernel: calibrate.Kernel,
               kernel_times: list[float]) -> float:
    """Scale the last send of each record to the reference speed."""
    factor = kernel.scale(kernel_times)
    for rec in records:
        rec.latencies[-1] *= factor
    return factor


def first_round(runner: Runner, blocks, budget: float,
                kernel: calibrate.Kernel) -> tuple[list[Record], float]:
    """Send whole blocks of requests until their summed latency reaches
    `budget` seconds, checking each request between requests.  Returns the
    records and the round's speed factor."""
    records: list[Record] = []
    kernel_times = []
    busy = 0.0
    while busy < budget:
        for req in next(blocks):
            records.append(_record(runner, req))
            busy += records[-1].latency
        kernel_times.append(kernel.time())
    return records, _calibrate(records, kernel, kernel_times)


def repeat_round(runner: Runner, records: list[Record], kernel: calibrate.Kernel) -> float:
    """Send every request again; its output must repeat byte for byte.
    Returns the round's speed factor."""
    kernel_times = []
    for i, rec in enumerate(records, 1):
        latency, out = runner.execute(rec.request)
        rec.latencies.append(latency)
        if _digest(out) != rec.digest:
            rec.verdict = Verdict(False, "output differs between sends of one request")
        if i % CALIBRATE_EVERY == 0 or i == len(records):
            kernel_times.append(kernel.time())
    return _calibrate(records, kernel, kernel_times)


def _send_traced(runner: Runner, req: workloads.Request, tracer: tracing.Tracer,
                 program: Program, index: int) -> tuple[float, Outcome]:
    tracer.install(program.package, program.modules)
    try:
        return runner.execute(req, tracer, index)
    finally:
        tracer.uninstall()


def measure_traced(runner: Runner, blocks, budget: float, tracer: tracing.Tracer,
                   program: Program) -> tuple[list[Record], list[Record]]:
    """Like :func:`first_round`, but send each request twice, untraced and
    traced, alternating which goes first.  The wrappers are installed only
    around the traced send, whose output must equal the untraced one."""
    untraced: list[Record] = []
    traced: list[Record] = []
    busy = 0.0
    while busy < budget:
        for req in next(blocks):
            index = len(traced)
            if index % 2:
                latency, out = _send_traced(runner, req, tracer, program, index)
                plain = _record(runner, req)
            else:
                plain = _record(runner, req)
                latency, out = _send_traced(runner, req, tracer, program, index)
            same = _digest(out) == plain.digest
            verdict = Verdict(True) if same else Verdict(False, "traced output differs from untraced")
            untraced.append(plain)
            traced.append(Record(req, [latency], verdict, plain.digest, plain.bytes_out))
            busy += plain.latency + latency
    return untraced, traced


def warm_up(runner: Runner, block: list[workloads.Request], workload: str) -> list[Record]:
    """Send requests of one block until each kind of the workload has run
    once, so lazy set-up in numpy and the program is done before timing."""
    pending = set(workloads.KINDS[workload])
    records = []
    for req in block:
        if not pending:
            break
        records.append(_record(runner, req))
        pending.discard(req.kind)
    return records


def setup_times(count: int, kernel: calibrate.Kernel) -> list[float]:
    """Time for each of `count` fresh interpreters to import the CLI and
    build its parser (``main(["--help"])``), timed inside the interpreter
    and scaled to the reference speed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    kernel_times = [kernel.time() for _ in range(SETUP_CALIBRATIONS)]
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.splitlines()[-1]))
    kernel_times += [kernel.time() for _ in range(SETUP_CALIBRATIONS)]
    factor = kernel.scale(kernel_times)
    return [t * factor for t in times]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND requests beyond it:
    (value, percentile, requests beyond)."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def end_to_end(records: list[Record], setup_s: float, rss_mb: float) -> dict[str, float]:
    latencies = [r.latency for r in records]
    tail_s, _, _ = tail(latencies)
    return {
        "setup_s": setup_s,
        "req_per_s": len(latencies) / sum(latencies),
        "req_p50_ms": 1e3 * statistics.median(latencies),
        "req_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer: tracing.Tracer, untraced: list[Record], traced: list[Record],
              checked: list[Record]) -> dict[str, float]:
    """Layer figures of the traced pass, per traced request unless the name
    says otherwise."""
    n = len(traced)
    values: dict[str, float] = {}
    totals = tracer.totals()
    for name, entry in totals.items():
        values[f"{name}.calls"] = entry["calls"] / n
        values[f"{name}.self_s"] = entry["self_s"] / n

    def per_call(name: str, ancestor: str) -> float:
        calls = totals.get(ancestor, {}).get("calls", 0)
        return tracer.calls_under(name, ancestor) / calls if calls else 0.0

    values["dynamics.run_schedule.samples"] = tracer.counters["dynamics.run_schedule.samples"] / n
    values["cli.bytes_out"] = sum(r.bytes_out for r in traced) / n
    values["dynamics.stage_half_width.peak_per_call"] = per_call(
        "dynamics.peak_success", "dynamics.stage_half_width")
    values["spectral.find_crossing.eigh_per_call"] = per_call(
        "linalg.eigh7", "spectral.find_crossing")
    values["check.max_abs_dev"] = max(r.verdict.max_dev for r in checked)
    values["dynamics.norm_drift_max"] = max(
        [tracer.maxima["dynamics.norm_drift_max"]] + [r.verdict.norm_drift for r in checked])
    values["trace.overhead_frac"] = (
        sum(r.latency for r in traced) / sum(r.latency for r in untraced) - 1.0)
    values["fail_frac"] = sum(not r.verdict.ok for r in checked) / len(checked)
    return values


def select(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """The metrics BENCHMARK.json names, with its units.  A call count or self
    time of a layer the workload never reaches reads 0."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in values and not name.endswith((".calls", ".self_s")):
            raise KeyError(f"benchmark computes no metric named {name!r}")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": spec["unit"]}
    return out


def environment(seed: int, workload: str, trace: bool) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="summed request time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program = load_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ProgramMissing, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(args.seed, args.workload, bool(args.trace))
    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        runner = Runner(program, work_dir)
        blocks = workloads.blocks(args.workload, args.seed)
        warm = warm_up(runner, next(blocks), args.workload)
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = measure_traced(runner, blocks, args.seconds, tracer, program)
            checked = warm + untraced + traced
            values = per_layer(tracer, untraced, traced, checked)
            metrics = select(values, spec["per_layer"])
            SPAN_DIR.mkdir(exist_ok=True)
            span_file = SPAN_DIR / f"spans-{args.workload}.jsonl"
            tracer.write(span_file)
            timed = traced
        else:
            kernel = calibrate.Kernel(args.workload)
            setup = setup_times(1 + SETUP_PER_ROUND, kernel)[1:]
            timed, factor = first_round(runner, blocks, args.seconds / ROUNDS, kernel)
            factors = [factor]
            for _ in range(ROUNDS - 1):
                setup += setup_times(SETUP_PER_ROUND, kernel)
                factors.append(repeat_round(runner, timed, kernel))
            setup += setup_times(SETUP_PER_ROUND, kernel)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checked = warm + timed
            metrics = select(end_to_end(timed, statistics.median(setup), rss_mb),
                             spec["end_to_end"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [r for r in checked if not r.verdict.ok]
    print(json.dumps({"env": env}))
    _, pct, beyond = tail([r.latency for r in timed])
    print(f"{args.workload}: {len(timed)} timed requests, "
          f"tail at p{pct:.1f} with {beyond} beyond, {len(failed)} failed")
    if args.trace:
        print(f"spans: {span_file.relative_to(ROOT)}")
    else:
        print("speed factor of each round: " + " ".join(f"{f:.3f}" for f in factors))
    for r in failed[:5]:
        print(f"FAILED {r.request}: {r.verdict.reason}")
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
