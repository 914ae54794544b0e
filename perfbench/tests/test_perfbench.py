"""Tests of the benchmark itself: seeded generation, the checker, tracing."""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Request  # noqa: E402

SMALL = [
    Request("evolve", 200, 1.0, {"samples": 40}),
    Request("sweep", 300, 2.0, {"lo": 0.009, "hi": 0.011, "points": 30}),
    Request("width", 200, 0.5, {"stage": 2, "offsets": 5, "eps_lo": 1e-7, "eps_hi": 1e-3}),
    Request("crossing", 400, 1.0, {"probe": "b", "pair": (0, 3), "lo": 0.0024, "hi": 0.0026}),
    Request("verify", 6, 2.0),
    Request("connectivity", 7, 3.0),
]


@pytest.fixture(scope="module")
def program():
    return run.load_program()


@pytest.fixture
def runner(program, tmp_path):
    return run.Runner(program, tmp_path)


def _first_blocks(workload: str, seed: int, n: int = 3) -> list:
    return list(itertools.islice(workloads.blocks(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _first_blocks(workload, 7) == _first_blocks(workload, 7)
    assert _first_blocks(workload, 7) != _first_blocks(workload, 8)
    kinds = {req.kind for block in _first_blocks(workload, 7) for req in block}
    assert kinds == set(workloads.KINDS[workload])


@pytest.mark.parametrize("req", SMALL, ids=lambda r: r.kind)
def test_checker_accepts_program_output(runner, req):
    _, out = runner.execute(req)
    verdict = checks.check(req, out)
    assert verdict.ok, verdict.reason


def _evolve_output(runner) -> tuple[Request, checks.Outcome, list[str]]:
    req = SMALL[0]
    _, out = runner.execute(req)
    return req, out, out.text.splitlines()


def _replace_column(lines: list[str], row: int, column: int, value: str) -> str:
    header = next(i for i, line in enumerate(lines) if line.startswith("t,"))
    fields = lines[header + 1 + row].split(",")
    fields[column] = value
    lines = list(lines)
    lines[header + 1 + row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_checker_rejects_perturbed_probability(runner):
    req, out, lines = _evolve_output(runner)
    header = next(i for i, line in enumerate(lines) if line.startswith("t,"))
    prob_a = float(lines[header + 21].split(",")[1])
    bad = _replace_column(lines, 20, 1, f"{prob_a + 1e-7:.12g}")
    verdict = checks.check(req, dataclasses.replace(out, text=bad))
    assert not verdict.ok and "prob_a" in verdict.reason


def test_checker_rejects_norm_off_one(runner):
    req, out, lines = _evolve_output(runner)
    bad = _replace_column(lines, 5, 3, "1.01")
    verdict = checks.check(req, dataclasses.replace(out, text=bad))
    assert not verdict.ok and "norm" in verdict.reason


def test_checker_rejects_failed_verify_line_and_wrong_crossing(runner):
    req = SMALL[4]
    _, out = runner.execute(req)
    bad = out.text.replace("PASS census", "FAIL census")
    assert not checks.check(req, dataclasses.replace(out, text=bad)).ok
    crossing = SMALL[3]
    _, out = runner.execute(crossing)
    assert checks.check(crossing, out).ok
    assert not checks.check(crossing, dataclasses.replace(out, value=out.value * 1.001)).ok


def test_checker_counts_exit_codes_and_exceptions():
    req = SMALL[0]
    assert not checks.check(req, checks.Outcome(code=2, text="")).ok
    assert not checks.check(req, checks.Outcome(error="ValueError: boom")).ok


def test_traced_and_untraced_outputs_are_identical(program, runner):
    tracer = tracing.Tracer()
    original = program.package.dynamics.reduced_hamiltonian
    for index, req in enumerate(SMALL):
        _, plain = runner.execute(req)
        tracer.install(program.package, program.modules)
        try:
            _, traced = runner.execute(req, tracer, index)
        finally:
            tracer.uninstall()
        assert run._digest(plain) == run._digest(traced), req.kind
    assert program.package.dynamics.reduced_hamiltonian is original
    totals = tracer.totals()
    # dynamics and spectral call subspace.reduced_hamiltonian through their
    # own bindings; both are counted under the defining module's name.
    assert totals["subspace.reduced_hamiltonian"]["calls"] >= 2 + 30
    assert totals["linalg.eighN"]["calls"] == 9
    assert totals["request.evolve"]["calls"] == 1
    for entry in totals.values():
        assert 0.0 <= entry["self_s"] <= entry["total_s"] + 1e-9


def test_tail_reads_the_highest_percentile_with_ten_beyond():
    latencies = list(np.arange(1, 101) / 1000)
    value, percentile, beyond = run.tail(latencies)
    assert beyond == 10 and value == pytest.approx(0.090) and percentile == pytest.approx(90.0)


def test_calibration_scales_the_last_send_to_the_reference_speed():
    kernel = calibrate.Kernel("fullspace")
    ref = kernel.reference_s
    assert kernel.scale([ref, 3 * ref, 2 * ref]) == pytest.approx(0.5)
    rec = run.Record(SMALL[0], [0.010, 0.040], checks.Verdict(True), "", 0)
    factor = run._calibrate([rec], kernel, [2 * ref])
    assert factor == pytest.approx(0.5)
    assert rec.latencies == pytest.approx([0.010, 0.020])
    assert rec.latency == pytest.approx(0.015)
    assert kernel.time() > 0
