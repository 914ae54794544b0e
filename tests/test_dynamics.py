"""Exact evolution, the two-stage schedule, peak detection, detuning widths."""

import numpy as np
import pytest

from simplexwalk import (
    GraphSpec,
    Stage,
    evolve,
    optimal_stage1_duration,
    peak_success,
    reduced_hamiltonian,
    reduced_initial_state,
    run_schedule,
    stage_half_width,
    two_stage_schedule,
    width_scan,
)


def _ham_and_state(M=1000, w=1.0, gamma=0.002):
    spec = GraphSpec(M, w)
    return reduced_hamiltonian(spec, gamma), reduced_initial_state(spec)


def test_evolve_zero_time_is_identity():
    ham, psi = _ham_and_state()
    assert np.allclose(evolve(ham, psi, 0.0), psi, atol=1e-14)


def test_evolve_transfers_to_cluster_state_in_t1():
    ham, psi = _ham_and_state()
    final = evolve(ham, psi, np.pi * 1000**1.5 / 4)
    assert abs(final[1]) ** 2 > 0.9


def test_eigenvector_probabilities_are_stationary():
    ham, _ = _ham_and_state(M=12, gamma=0.1)
    _, vecs = np.linalg.eigh(ham)
    psi0 = vecs[:, 2].astype(complex)
    for t in (0.7, 13.0, 211.0):
        drift = np.abs(evolve(ham, psi0, t)) ** 2 - np.abs(psi0) ** 2
        assert np.max(np.abs(drift)) <= 1e-10


def test_evolution_composition():
    ham, psi = _ham_and_state(M=50, gamma=0.04)
    step = evolve(ham, evolve(ham, psi, 17.0), 25.0)
    direct = evolve(ham, psi, 42.0)
    assert np.linalg.norm(step - direct) <= 1e-9


def test_evolution_reversibility():
    ham, psi = _ham_and_state(M=50, gamma=0.04)
    back = evolve(ham, evolve(ham, psi, 321.0), -321.0)
    assert np.linalg.norm(back - psi) <= 1e-9


def test_evolve_rejects_mismatched_state():
    ham, _ = _ham_and_state()
    with pytest.raises(ValueError):
        evolve(ham, np.zeros(6, dtype=complex), 1.0)


def test_evolve_rejects_nonfinite_time():
    ham, psi = _ham_and_state()
    for t in (np.inf, np.nan):
        with pytest.raises(ValueError):
            evolve(ham, psi, t)


def test_two_stage_run_w1():
    spec = GraphSpec(1000, 1.0)
    schedule = two_stage_schedule(spec)
    series = run_schedule(spec, schedule, samples_per_stage=500)
    assert np.all(np.diff(series.times) > 0)
    assert np.max(np.abs(series.norm - 1.0)) <= 1e-10
    assert np.all(series.prob_a + series.prob_b <= 1.0 + 1e-9)
    end1 = int(np.searchsorted(series.times, schedule[0].duration))
    assert series.times[end1] == schedule[0].duration
    assert series.prob_b[end1] > 0.99
    assert series.prob_a[-1] > 0.99
    assert series.stage_boundaries == (
        schedule[0].duration,
        schedule[0].duration + schedule[1].duration,
    )


def test_two_stage_run_w3_has_half_the_stage1_length():
    spec = GraphSpec(1000, 3.0)
    schedule = two_stage_schedule(spec)
    assert schedule[0].duration == pytest.approx(12418.235, abs=1e-3)
    assert schedule[1].duration == pytest.approx(49.673, abs=1e-3)
    series = run_schedule(spec, schedule, samples_per_stage=400)
    end1 = int(np.searchsorted(series.times, schedule[0].duration))
    assert series.prob_b[end1] > 0.9
    assert series.prob_a[-1] > 0.9


def test_detuned_single_stage_never_builds_success():
    spec = GraphSpec(1000, 1.0)
    series = run_schedule(spec, [Stage(0.01, 1e4)], samples_per_stage=4000)
    assert np.max(series.prob_a) < 0.01


def test_run_schedule_matches_chained_evolve():
    spec = GraphSpec(200, 2.0)
    schedule = two_stage_schedule(spec)
    samples = 40
    series = run_schedule(spec, schedule, samples_per_stage=samples)
    psi = reduced_initial_state(spec)
    expected = [psi]
    for gamma, duration in schedule:
        ham = reduced_hamiltonian(spec, gamma)
        # a sample on a stage boundary belongs to the later stage, at tau = 0
        expected[-1] = evolve(ham, psi, 0.0)
        for n in range(1, samples + 1):
            expected.append(evolve(ham, psi, duration * n / samples))
        psi = evolve(ham, psi, duration)
    expected = np.array(expected)
    assert len(series.times) == len(expected)
    assert np.max(np.abs(series.prob_a - np.abs(expected[:, 0]) ** 2)) <= 1e-12
    assert np.max(np.abs(series.prob_b - np.abs(expected[:, 1]) ** 2)) <= 1e-12
    assert np.max(np.abs(series.norm - np.linalg.norm(expected, axis=1))) <= 1e-12


def test_run_schedule_rejects_bad_schedules():
    spec = GraphSpec(5, 1.0)
    with pytest.raises(ValueError):
        run_schedule(spec, [])
    for gamma, duration in ((0.1, -1.0), (-0.1, 1.0), (0.1, np.inf), (0.1, np.nan),
                            (np.inf, 1.0), (np.nan, 1.0)):
        with pytest.raises(ValueError):
            run_schedule(spec, [Stage(gamma, duration)])


def test_peak_success_w1():
    spec = GraphSpec(1000, 1.0)
    t_peak, p_peak = peak_success(spec, two_stage_schedule(spec))
    assert t_peak == pytest.approx(24886.14, rel=0.02)
    assert p_peak == pytest.approx(0.998056417730049, abs=1e-6)


def test_peak_success_w3():
    spec = GraphSpec(1000, 3.0)
    t_peak, p_peak = peak_success(spec, two_stage_schedule(spec))
    assert t_peak == pytest.approx(12467.9, rel=0.02)
    assert p_peak == pytest.approx(0.9678521748952772, abs=1e-6)


@pytest.mark.parametrize("w", [1.0, 2.0, 3.0])
def test_two_stage_transfer_floor(w):
    spec = GraphSpec(1000, w)
    _, p_peak = peak_success(spec, two_stage_schedule(spec))
    assert p_peak >= 0.5


def test_two_stage_transfer_survives_moderate_weight():
    # validity margin sqrt(M)/w ~ 6.3 here; the schedule still works
    spec = GraphSpec(1000, 5.0)
    _, p_peak = peak_success(spec, two_stage_schedule(spec))
    assert p_peak >= 0.5


def test_peak_success_zero_duration_schedule():
    spec = GraphSpec(1000, 1.0)
    t_peak, p_peak = peak_success(spec, [Stage(0.002, 0.0)])
    assert t_peak == 0.0
    assert p_peak == pytest.approx(1.0 / spec.n_vertices, abs=1e-12)


def test_width_scan_zero_offset_matches_baseline():
    spec = GraphSpec(500, 1.0)
    _, baseline = peak_success(spec, two_stage_schedule(spec))
    offsets, peaks = width_scan(spec, 2, [0.0])
    assert offsets[0] == 0.0
    assert peaks[0] == pytest.approx(baseline, abs=1e-12)


def test_width_scan_large_stage2_detuning_halves_the_peak():
    spec = GraphSpec(500, 1.0)
    _, baseline = peak_success(spec, two_stage_schedule(spec))
    _, peaks = width_scan(spec, 2, [50.0 / 500**1.5])
    assert peaks[0] < baseline / 2


def test_width_scan_rejects_bad_stage():
    with pytest.raises(ValueError):
        width_scan(GraphSpec(500, 1.0), 3, [0.0])


def test_optimal_stage1_duration_ratio():
    t_w1, pb_w1 = optimal_stage1_duration(GraphSpec(1000, 1.0))
    t_w3, pb_w3 = optimal_stage1_duration(GraphSpec(1000, 3.0))
    assert pb_w1 > 0.9 and pb_w3 > 0.9
    assert t_w1 / t_w3 == pytest.approx(2.0, rel=0.05)
    assert t_w1 == pytest.approx(np.pi * 1000**1.5 / 4, rel=0.01)


@pytest.mark.parametrize("stage", [1, 2])
def test_stage_half_width_brackets_half_the_baseline(stage):
    spec = GraphSpec(500, 1.0)
    eps = stage_half_width(spec, stage)
    _, baseline = peak_success(spec, two_stage_schedule(spec))
    _, (inner, outer) = width_scan(spec, stage, [eps * (1 - 1e-6), eps * (1 + 1e-6)])
    assert inner > baseline / 2 > outer
