"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Regression baselines (peak probabilities) were measured once with this code
and frozen; everything else checks closed-form or independently derived
values at the stated tolerances.
"""

import math

import numpy as np
import pytest

import simplexwalk as sw
from simplexwalk.cli import main as cli_main


def _verdict(name: str, failures: list[str]) -> None:
    print(f"[acceptance] {name}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, "; ".join(failures)


def test_criterion_1_subspace_equivalence():
    failures = []
    for M in (3, 4, 5, 6, 8):
        for w in (1.0, 2.0, 3.5):
            spec = sw.GraphSpec(M, w)
            basis = sw.class_basis(spec)
            psi_full = sw.full_initial_state(spec)
            psi_red = sw.reduced_initial_state(spec)
            for gamma in (1.0 / M, 2.0 / M):
                ham_full = sw.full_hamiltonian(spec, gamma)
                ham_red = sw.reduced_hamiltonian(spec, gamma)
                projected = basis.matrix @ ham_full @ basis.matrix.T
                dev = np.max(np.abs(projected - ham_red))
                if dev > 1e-10:
                    failures.append(f"projection dev {dev:.2e} at {M=} {w=} {gamma=}")
                for t in (1.0, 10.0):
                    full = sw.evolve(ham_full, psi_full, t)
                    lifted = basis.lift(sw.evolve(ham_red, psi_red, t))
                    err = np.linalg.norm(full - lifted)
                    if err > 1e-8:
                        failures.append(f"dynamics dev {err:.2e} at {M=} {w=} {gamma=} {t=}")
    _verdict("1 subspace equivalence", failures)


def test_criterion_2_overlap_crossings():
    failures = []
    cases = [
        (1.0, "s", (0, 1), (0.0015, 0.0025), 0.002),
        (1.0, "b", (0, 3), (0.0008, 0.0012), 0.001),
        (3.0, "s", (0, 1), (0.0010, 0.0020), 4 / 3000),
        (3.0, "b", (0, 3), (0.0008, 0.0012), 0.001),
    ]
    for w, probe, pair, bracket, target in cases:
        gamma = sw.find_crossing(sw.GraphSpec(1000, w), probe, pair, bracket)
        if abs(gamma - target) / target > 0.05:
            failures.append(f"crossing {probe}{pair} at {gamma:.6g}, expected {target:.6g}")
    _verdict("2 overlap crossings", failures)


def test_criterion_3_two_stage_transfer():
    spec = sw.GraphSpec(1000, 1.0)
    schedule = [sw.Stage(0.002, 24836.471), sw.Stage(0.001, 49.673)]
    series = sw.run_schedule(spec, schedule, samples_per_stage=2000)
    end1 = int(np.searchsorted(series.times, schedule[0].duration))
    t_peak, p_peak = sw.peak_success(spec, schedule)
    failures = []
    if not series.prob_b[end1] > 0.8:
        failures.append(f"prob_b at stage-1 end is {series.prob_b[end1]:.4f} <= 0.8")
    if not p_peak >= 0.5:
        failures.append(f"peak success {p_peak:.4f} < 0.5")
    if abs(t_peak - 24886.14) / 24886.14 > 0.02:
        failures.append(f"peak at t={t_peak:.2f}, expected within 2% of 24886.14")
    # frozen regression baselines
    if abs(series.prob_b[end1] - 0.995108389765728) > 1e-6:
        failures.append(f"stage-1 transfer drifted: {series.prob_b[end1]!r}")
    if abs(p_peak - 0.998056435937684) > 1e-6:
        failures.append(f"peak success drifted: {p_peak!r}")
    _verdict("3 two-stage transfer", failures)


def test_criterion_4_weight_speedup_and_runtime_scaling():
    failures = []
    t_w1, _ = sw.optimal_stage1_duration(sw.GraphSpec(1000, 1.0))
    t_w3, _ = sw.optimal_stage1_duration(sw.GraphSpec(1000, 3.0))
    ratio = t_w1 / t_w3
    if abs(ratio - 2.0) > 0.1:
        failures.append(f"stage-1 speedup ratio {ratio:.4f} not 2 +- 5%")
    for w in (1.0, 2.0):
        sizes = np.array([250, 500, 1000, 2000])
        totals = []
        for M in sizes:
            spec = sw.GraphSpec(int(M), w)
            t1_meas, _ = sw.optimal_stage1_duration(spec)
            pred = sw.predict(spec)
            t2_peak, _ = sw.peak_success(
                spec, [sw.Stage(pred.gamma_c1, t1_meas), sw.Stage(pred.gamma_c2, 1.5 * pred.t2)]
            )
            totals.append(t2_peak)
        slope = np.polyfit(np.log(sizes), np.log(totals), 1)[0]
        if abs(slope - 1.5) > 0.03:
            failures.append(f"runtime exponent {slope:.4f} at {w=} not 1.5 +- 0.03")
    _verdict("4 weight speedup and runtime scaling", failures)


def test_criterion_5_gap_formulas_at_m4000():
    failures = []
    M = 4000
    for w in (1.0, 2.0, 4.0):
        spec = sw.GraphSpec(M, w)
        pred = sw.predict(spec)
        lam1 = np.linalg.eigh(sw.reduced_hamiltonian(spec, pred.gamma_c1))[0]
        ratio1 = (lam1[1] - lam1[0]) * M**1.5 / (2 * (1 + w))
        if not 0.9 <= ratio1 <= 1.1:
            failures.append(f"stage-1 gap prefactor {ratio1:.4f} at {w=}")
        lam2 = np.linalg.eigh(sw.reduced_hamiltonian(spec, pred.gamma_c2))[0]
        ratio2 = (lam2[3] - lam2[0]) * math.sqrt(M) / 2
        if not 0.95 <= ratio2 <= 1.05:
            failures.append(f"stage-2 gap prefactor {ratio2:.4f} at {w=}")
    _verdict("5 gap formulas", failures)


def test_criterion_6_edge_census_tables():
    failures = []
    for M in range(3, 13):
        for w in (1.0, 2.5):
            spec = sw.GraphSpec(M, w)
            census = sw.edge_census(spec)
            if census != sw.census_formulas(M):
                failures.append(f"census mismatch at {M=} {w=}")
    _verdict("6 edge census tables", failures)


def test_criterion_7_connectivity_formulas():
    failures = []
    for M in range(3, 13):
        for w in (0.5, 1.0, 2.0, 5.0):
            spec = sw.GraphSpec(M, w)
            lam1 = sw.connectivity_and_norm(spec)[0]
            closed = sw.algebraic_connectivity_formula(M, w)
            if abs(lam1 - closed) > 1e-8:
                failures.append(f"lambda1 {lam1!r} vs {closed!r} at {M=} {w=}")
            top = np.linalg.eigvalsh(sw.build_adjacency(spec))[-1]
            if abs(top - (M + w - 1)) > 1e-8:
                failures.append(f"operator norm {top!r} at {M=} {w=}")
    _verdict("7 connectivity formulas", failures)


def test_criterion_8_detuning_width_scaling():
    failures = []
    sizes = np.array([250, 500, 1000])
    widths = [sw.stage_half_width(sw.GraphSpec(int(M), 1.0), 2) for M in sizes]
    slope = np.polyfit(np.log(sizes), np.log(widths), 1)[0]
    if abs(slope + 1.5) > 0.15:
        failures.append(f"stage-2 half-width exponent {slope:.4f} not -1.5 +- 0.15")
    spec = sw.GraphSpec(1000, 3.0)
    w1 = sw.stage_half_width(spec, 1)
    w2 = sw.stage_half_width(spec, 2)
    if not w1 < w2:
        failures.append(f"stage-1 half-width {w1:.3e} not below stage-2 {w2:.3e}")
    for w in (0.5, 1.0, 2.0, 3.0):
        spec = sw.GraphSpec(4000, w)
        for stage in (1, 2):
            numeric = sw.stage_half_width(spec, stage)
            closed = sw.theory.half_width(spec, stage)
            if abs(numeric / closed - 1) > 0.1:
                failures.append(f"stage-{stage} half-width {numeric:.4e} not within 10% "
                                f"of the closed form {closed:.4e} at M=4000 {w=}")
    _verdict("8 detuning width scaling", failures)


def test_criterion_9_property_suite(tmp_path):
    failures = []

    spec = sw.GraphSpec(1000, 2.0)
    series = sw.run_schedule(spec, sw.two_stage_schedule(spec), samples_per_stage=500)
    if np.max(np.abs(series.norm - 1.0)) > 1e-10:
        failures.append("unitarity violated along the two-stage schedule")

    ham = sw.reduced_hamiltonian(spec, 0.0015)
    psi = sw.reduced_initial_state(spec)
    composed = sw.evolve(ham, sw.evolve(ham, psi, 12.5), 87.5)
    if np.linalg.norm(composed - sw.evolve(ham, psi, 100.0)) > 1e-9:
        failures.append("evolution composition violated")
    returned = sw.evolve(ham, sw.evolve(ham, psi, 55.0), -55.0)
    if np.linalg.norm(returned - psi) > 1e-9:
        failures.append("evolution reversibility violated")

    for tag in ("s", "a", "b"):
        total = sw.overlaps(np.linalg.eigh(ham)[1], sw.probe_state(spec, tag)).sum()
        if abs(total - 1.0) > 1e-9:
            failures.append(f"eigenbasis completeness violated for probe {tag}")

    pairs = []
    for name, argv in [
        ("sweep", ["sweep", "--M", "400", "--w", "2", "--lo", "0.002", "--hi", "0.008",
                   "--points", "30"]),
        ("predict", ["predict", "--M", "400", "--w", "2"]),
        ("evolve", ["evolve", "--M", "400", "--w", "2", "--samples", "40"]),
    ]:
        paths = [tmp_path / f"{name}_{k}.txt" for k in (0, 1)]
        for path in paths:
            if cli_main(argv + ["--out", str(path)]) != 0:
                failures.append(f"{name} run failed")
        pairs.append((name, paths))
    for name, (first, second) in pairs:
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{name} output not byte-identical across runs")

    _verdict("9 property suite", failures)
