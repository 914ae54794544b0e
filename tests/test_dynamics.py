"""Exact evolution, the two-stage schedule, peak detection, detuning widths."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwalk import (
    GraphSpec,
    Stage,
    cli,
    dynamics,
    evolve,
    optimal_stage1_duration,
    peak_success,
    reduced_hamiltonian,
    reduced_initial_state,
    run_schedule,
    stage_half_width,
    theory,
    two_stage_schedule,
    width_scan,
)
from simplexwalk.subspace import _search_generator, reduced_adjacency


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_evolve_rejects_nonfinite_hamiltonian(bad):
    # refused as non-finite before the symmetry check, which nan would fail
    ham, psi = _ham_and_state()
    ham[2, 3] = ham[3, 2] = bad
    for matrix, state in (([[bad]], [1.0]), (ham, psi)):
        with pytest.raises(ValueError, match="must be finite"):
            evolve(matrix, state, 1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_evolve_rejects_nonfinite_state(bad):
    ham, psi = _ham_and_state(M=5, gamma=0.4)
    psi[3] = bad
    for state in (psi, [bad, 0, 0, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="state must be finite"):
            evolve(ham, state, 1.0)


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


def test_run_schedule_rejects_bad_samples_per_stage():
    spec = GraphSpec(20, 1.0)
    for samples in (0, -3, 2.5):
        with pytest.raises(ValueError, match="samples_per_stage"):
            run_schedule(spec, two_stage_schedule(spec), samples_per_stage=samples)
    assert len(run_schedule(spec, two_stage_schedule(spec), np.int64(2)).times) == 5


def test_stage_that_vanishes_in_global_time_is_refused():
    spec = GraphSpec(1000, 1.0)
    (gamma1, _), (gamma2, t2) = two_stage_schedule(spec)
    for call in (run_schedule, peak_success):
        with pytest.raises(ValueError, match="stage 2"):
            call(spec, [Stage(gamma1, 1e300), Stage(gamma2, t2)])
    for M in (3, 10**3, 10**6, 10**9, 10**12):
        spec = GraphSpec(M, 1.0)
        series = run_schedule(spec, two_stage_schedule(spec), samples_per_stage=3)
        assert len(series.times) == 7
        assert series.stage_boundaries[0] < series.stage_boundaries[1]


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


def _propagator(spec, schedule):
    return dynamics._propagator(spec, *dynamics._validate_schedule(spec, schedule))


def _sorted_union(boundaries):
    """The peak grid by its definition: a uniform grid of ``_GRID_POINTS``
    over the schedule and the stage boundaries, sorted, without repeats."""
    return np.unique(np.concatenate(
        [np.linspace(0.0, boundaries[-1], dynamics._GRID_POINTS), boundaries]
    ))


def _full_grid_peak(spec, schedule):
    """peak_success without the stage skip: every grid point evaluated, and
    each scalar time through ``_contract`` on its stage found by
    ``searchsorted``, not through ``_Propagator.probability``."""
    prop = _propagator(spec, schedule)
    total = prop.boundaries[-1]
    times = _sorted_union(prop.boundaries)

    def prob(t):
        k = int(np.searchsorted(prop.boundaries[1:-1], t, side="right"))
        lam, vecs, coeff = prop._spectra[k]
        return np.abs(dynamics._contract(lam, vecs[0], coeff, t - prop.boundaries[k])) ** 2

    values = np.abs(prop.amplitudes(times, 0)) ** 2
    i = int(np.argmax(values))
    return dynamics._grid_max(lambda _, ts: [prob(t) for t in ts], [(times, i, values[i])],
                              1e-6 * total)[0]


@pytest.mark.parametrize("row", [0, 1])
def test_scalar_probability_is_the_contraction_on_its_stage(row):
    spec, g1, t1, g2, t2 = _critical_rates(1000, 3.0)
    prop = _propagator(spec, [(g1, t1), (g2, t2), (1.5 * g2, 0.0), (2 * g2, t2)])
    p = prop.probability(row)
    bounds = prop.boundaries
    # the boundaries (each belongs to the stage it starts), points inside,
    # and times before and after the schedule
    times = [*bounds, *(0.5 * (bounds[:-1] + bounds[1:])), -1.0, bounds[-1] + 7.0]
    for t in map(np.float64, times):
        k = int(np.searchsorted(bounds[1:-1], t, side="right"))
        lam, vecs, coeff = prop._spectra[k]
        expected = np.abs(dynamics._contract(lam, vecs[row], coeff, t - bounds[k])) ** 2
        assert p(t) == expected, t


def test_contraction_of_selected_columns_is_bit_identical():
    # each selected column equals the whole contraction's; contracting the
    # compacted columns instead changed the last bit of about half of these
    rng = np.random.default_rng(7)
    spec, g1, t1, g2, t2 = _critical_rates(1000, 3.0)
    prop = _propagator(spec, [(g1, t1), (3 * g2, t2)])
    for _ in range(150):
        k, n = int(rng.integers(2)), int(rng.integers(1, 3000))
        times = np.sort(rng.uniform(prop.boundaries[k], prop.boundaries[k + 1], n))
        cols = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        for rows in (0, slice(None)):
            full = prop.stage_amplitudes(k, times, rows)
            part = prop.stage_amplitudes(k, times, rows, cols)
            assert part.tobytes() == full[..., cols].tobytes()


@pytest.mark.parametrize("durations, grid_points", [
    ([7.0, 0.0, 3.0], 10_000),          # a zero-duration stage
    ([3.0, 1.0], 5),                    # a boundary on a grid point
    ([3.0, 1.0], 10_000),
    ([1.5, 0.25, 2.0, 1e-3], 10_000),   # four stages, two boundaries in one cell
    ([24836.47, 49.67], 10_000),        # the two-stage schedule at M = 1000
    ([0.0, 0.0], 10_000),               # zero total: the grid is one point
    ([13 * 5e-324], 9),                 # subnormal total: linspace overshoots
    ([5e-324], 3),                      # subnormal total: linspace repeats
])
def test_peak_grid_equals_the_sorted_union(monkeypatch, durations, grid_points):
    monkeypatch.setattr(dynamics, "_GRID_POINTS", grid_points)
    spec = GraphSpec(20, 1.0)
    stages, boundaries, times, pieces = dynamics._peak_frame(spec, [(1.0, d) for d in durations])
    assert [s.duration for s in stages] == durations
    assert boundaries.tolist() == np.concatenate([[0.0], np.cumsum(durations)]).tolist()
    expected = _sorted_union(boundaries)
    assert times.dtype == expected.dtype and times.tobytes() == expected.tobytes()
    assert (np.diff(times) > 0).all() and np.isin(boundaries, times).all()
    # the pieces tile the grid, and stage k's holds the times in
    # [boundary k, boundary k + 1); the last stage also holds the end
    assert pieces[0].start == 0 and pieces[-1].stop == len(times)
    for k, piece in enumerate(pieces):
        assert (times[piece] >= boundaries[k]).all()
        if k + 1 < len(pieces):
            assert piece.stop == pieces[k + 1].start and (times[piece] < boundaries[k + 1]).all()
    schedule = [(0.05 * (k + 1), d) for k, d in enumerate(durations)]
    assert peak_success(spec, schedule) == _full_grid_peak(spec, schedule)


def _critical_rates(M=1000, w=1.0):
    spec = GraphSpec(M, w)
    (gamma1, t1), (gamma2, t2) = two_stage_schedule(spec)
    return spec, gamma1, t1, gamma2, t2


@pytest.mark.parametrize("case, grid_points", [
    ("two_stage", 10_000), ("three_stages", 10_000), ("four_stages", 10_000),
    ("zero_durations", 10_000), ("zero_last_stage", 10_000),
    ("stage1_peak", 10_000), ("two_stage", 2),
])
def test_peak_success_equals_full_grid_search(monkeypatch, case, grid_points):
    monkeypatch.setattr(dynamics, "_GRID_POINTS", grid_points)
    spec, g1, t1, g2, t2 = _critical_rates()
    schedule = {
        "two_stage": [(g1, t1), (g2, t2)],
        "three_stages": [(g1, t1), (g2, t2), (g1, t1 / 3)],
        "four_stages": [(g1, t1), (g2, t2), (3 * g2, 2 * t2), (g1, t1)],
        "zero_durations": [(g1, 0.0), (g2, t2), (g1, 0.0)],
        "zero_last_stage": [(g1, t1), (g2, 0.0)],
        # detuned so far that stage 1 holds the peak and stage 2 is skipped
        "stage1_peak": [(g1, t1), (10 * g2, t2)],
    }[case]
    result = peak_success(spec, schedule)
    assert result == _full_grid_peak(spec, schedule)
    if case == "stage1_peak":
        assert result[0] < t1


def test_peak_success_equals_full_grid_search_on_random_schedules(monkeypatch):
    rng = np.random.default_rng(4)
    for _ in range(40):
        spec, g1, t1, g2, t2 = _critical_rates(
            int(10 ** rng.uniform(1, 4)), float(rng.choice([0.5, 1.0, 3.0]))
        )
        schedule = [
            (gamma * 10 ** rng.uniform(-1, 1), duration * rng.choice([0.0, 0.5, 1.0, 2.0]))
            for gamma, duration in [(g1, t1), (g2, t2), (g1, t1), (g2, t2)][:rng.integers(1, 5)]
        ]
        monkeypatch.setattr(dynamics, "_GRID_POINTS", int(rng.choice([2, 7, 100, 10_000])))
        assert peak_success(spec, schedule) == _full_grid_peak(spec, schedule)
    monkeypatch.setattr(dynamics, "_GRID_POINTS", 10_000)
    pair_cuts = _count_calls(monkeypatch, dynamics._Propagator, "pair_bounds")
    # far detuned, so that stage 1's bound B_1**2 reaches the peak and stage
    # 1 goes to the per-point bounds; then M up to 1e7, where a phase lam tau
    # reaches about 5e10 and its rounding is most of the bounds' slack
    for M_range in [(1, 4), (4, 7)]:
        for _ in range(20):
            spec, g1, t1, g2, t2 = _critical_rates(
                int(10 ** rng.uniform(*M_range)), float(rng.choice([0.5, 1.0, 3.0]))
            )
            detuning = 10 ** (rng.choice([-1, 1]) * rng.uniform(0.3, 1.5))
            schedule = [(g1 * (1 + rng.normal(scale=0.3) / math.sqrt(spec.M)), t1),
                        (g2 * detuning, t2 * rng.choice([1.0, 2.0]))]
            assert peak_success(spec, schedule) == _full_grid_peak(spec, schedule)
    assert len(pair_cuts) >= 20


@pytest.mark.parametrize("M, w, detune", [
    (10, 1.0, 1.0), (200, 0.5, 1.0), (1000, 1.0, 1.0), (1000, 3.0, 3.0), (5000, 2.0, 0.3),
])
def test_stage_bound_caps_marked_probability(M, w, detune):
    spec, g1, t1, g2, t2 = _critical_rates(M, w)
    prop = _propagator(spec, [(g1, t1), (detune * g2, t2), (detune * g1, t1 / 2)])
    for k, bound in enumerate(prop.amplitude_bounds()):
        times = np.linspace(prop.boundaries[k], prop.boundaries[k + 1], 20_001)
        prob = np.abs(prop.stage_amplitudes(k, times, 0)) ** 2
        assert prob.max() <= bound**2 * (1 + 1e-9)
        assert (prob <= prop.pair_bounds(k, times)).all()


def test_peak_success_evaluates_under_one_percent_of_the_grid(monkeypatch):
    columns = []
    contract = dynamics._contract

    def counting(lam, vecs, coeff, tau, cols=None):
        columns.append(np.size(tau if cols is None else cols))
        return contract(lam, vecs, coeff, tau, cols)

    monkeypatch.setattr(dynamics, "_contract", counting)
    spec = GraphSpec(1000, 1.0)
    peak_success(spec, two_stage_schedule(spec))
    assert 0 < sum(columns) < 0.01 * 10_000


# A width request of the benchmark's scan workload: three of its stage-1
# detunings are so far off that stage 2's peak falls below stage 1's bound
# B_1**2, and the whole-stage search evaluated 29,439 stage-1 columns.
_FAR_WIDTH = ["width", "--M", "211", "--w", "3", "--stage", "1", "--offsets", "21",
              "--eps-lo", "4.000183709718958e-07", "--eps-hi", "0.00315955766192733"]


def test_far_detuned_width_evaluates_under_five_percent_of_stage_1(monkeypatch, tmp_path):
    columns = []
    stage_amplitudes = dynamics._Propagator.stage_amplitudes

    def counting(prop, k, times, rows, *cols):
        if k == 0:
            columns.append(len(times) if not cols or cols[0] is None else len(cols[0]))
        return stage_amplitudes(prop, k, times, rows, *cols)

    monkeypatch.setattr(dynamics._Propagator, "stage_amplitudes", counting)
    assert cli.main(_FAR_WIDTH + ["--out", str(tmp_path / "width.csv")]) == 0
    assert 0 < sum(columns) < 0.05 * 29_439


def test_far_detuned_width_scan_equals_full_grid_searches():
    # the offsets of that request, as cmd_width builds them
    spec = GraphSpec(211, 3.0)
    positive = np.logspace(np.log10(float(_FAR_WIDTH[-3])), np.log10(float(_FAR_WIDTH[-1])), 10)
    offsets = np.concatenate([-positive[::-1], [0.0], positive])
    (g1, t1), stage2 = two_stage_schedule(spec)
    expected = [_full_grid_peak(spec, [(g1 + eps, t1), stage2])[1] for eps in offsets]
    assert width_scan(spec, 1, offsets).tolist() == expected


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: certified peak search")
def test_peak_success_resolves_a_spike_narrower_than_the_grid():
    # stage 2 held for 10 t2 at M = 1e6: dense sampling reaches 0.999998,
    # the uniform 10k-point grid steps over the spike and finds 4e-6
    spec, g1, t1, g2, t2 = _critical_rates(10**6)
    _, p_peak = peak_success(spec, [(g1, t1), (g2, 10 * t2)])
    assert p_peak > 0.99


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: certified peak search")
def test_width_scan_resolves_stage_2_at_the_benchmarks_sizes():
    # a stage-2 width request of the benchmark's scan workload: stage 2 lasts
    # 106.8 and the peak grid steps 32.95, so it holds about three grid
    # points; the search returns 0.0043665664185003 where 20,001 points over
    # stage 2 reach 0.0043677516803
    spec, g1, t1, g2, t2 = _critical_rates(4625, 0.5)
    eps = 1.0810810810810813e-4
    prop = _propagator(spec, [(g1, t1), (g2 + eps, t2)])
    times = np.linspace(prop.boundaries[1], prop.boundaries[2], 20_001)
    dense = np.abs(prop.stage_amplitudes(1, times, 0)) ** 2
    assert width_scan(spec, 2, [eps])[0] >= dense.max() - 1e-9


def test_width_scan_zero_offset_matches_baseline():
    spec = GraphSpec(500, 1.0)
    _, baseline = peak_success(spec, two_stage_schedule(spec))
    peaks = width_scan(spec, 2, [0.0])
    assert peaks[0] == pytest.approx(baseline, abs=1e-12)


def test_width_scan_large_stage2_detuning_halves_the_peak():
    spec = GraphSpec(500, 1.0)
    _, baseline = peak_success(spec, two_stage_schedule(spec))
    peaks = width_scan(spec, 2, [50.0 / 500**1.5])
    assert peaks[0] < baseline / 2


def _count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` with a wrapper that records each call's
    arguments in the returned list."""
    calls, function = [], getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("repeat", [False, True])
def test_peak_success_makes_one_eigensolve_per_stage(monkeypatch, repeat):
    spec, g1, t1, g2, t2 = _critical_rates(500)
    schedule = [(g1, t1), (g2, t2)] + [(g1, t1 / 3), (g2, t2)] * repeat
    eigh_calls = _count_calls(monkeypatch, np.linalg, "eigh")
    frames = _count_calls(monkeypatch, dynamics, "_peak_frame")
    peak_success(spec, schedule)
    assert [m.shape for m, in eigh_calls] == [(7, 7)] * len(schedule)
    assert len(frames) == 1


@pytest.mark.parametrize("stage", [1, 2])
def test_width_scan_diagonalises_the_fixed_stage_once(monkeypatch, stage):
    calls = _count_calls(monkeypatch, np.linalg, "eigh")
    frames = _count_calls(monkeypatch, dynamics, "_peak_frame")
    spec = GraphSpec(500, 1.0)
    offsets = np.linspace(-1e-5, 1e-5, 21)
    peaks = width_scan(spec, stage, offsets)
    # the fixed stage once, then the 21 detuned generators as one stack
    assert [m.shape for m, in calls] == [(7, 7), (21, 7, 7)]
    assert len(frames) == 1
    for eps, p in zip(offsets[::5], peaks[::5]):
        schedule = two_stage_schedule(spec)
        gamma, duration = schedule[stage - 1]
        schedule[stage - 1] = Stage(gamma + eps, duration)
        assert p == peak_success(spec, schedule)[1]


def _fresh_detuned_peak(spec, stage, eps):
    """peak_success on the two-stage schedule with one stage's gamma detuned,
    each search built from scratch through the public API."""
    schedule = two_stage_schedule(spec)
    gamma, duration = schedule[stage - 1]
    schedule[stage - 1] = Stage(gamma + eps, duration)
    return peak_success(spec, schedule)


def _half_width_or_error(spec, stage):
    try:
        return stage_half_width(spec, stage)
    except RuntimeError as exc:
        return str(exc)


def test_detuned_scans_equal_fresh_peak_searches(monkeypatch):
    rng = np.random.default_rng(10)
    stage1_peaks = 0
    for _ in range(6):
        spec = GraphSpec(int(round(10 ** rng.uniform(1, np.log10(2e4)))),
                         float(10 ** rng.uniform(-0.3, 0.45)))
        t1 = two_stage_schedule(spec)[0].duration
        for stage in (1, 2):
            gamma = two_stage_schedule(spec)[stage - 1].gamma
            # zero, two near the plateau, and two so far off that the detuned
            # stage stops transferring (stage 2's peak then moves into stage 1)
            offsets = [0.0, *(rng.normal(size=2) * spec.M ** -1.5), -0.5 * gamma, 9 * gamma]
            peaks = width_scan(spec, stage, offsets)
            fresh = [_fresh_detuned_peak(spec, stage, eps) for eps in offsets]
            assert peaks.tolist() == [p for _, p in fresh]
            stage1_peaks += sum(t < t1 for t, _ in fresh)

            half_width = _half_width_or_error(spec, stage)
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "_detuned_peak", lambda spec, stage: (
                    lambda eps: _fresh_detuned_peak(spec, stage, eps)[1]))
                assert _half_width_or_error(spec, stage) == half_width
    assert stage1_peaks >= 6


@pytest.mark.parametrize("stage", [1, 2])
def test_stacked_probability_equals_the_scalar_probability(stage):
    # width_scan's lockstep refinement evaluates all its searches through
    # one stacked pass; each value must be bit for bit the scalar
    # evaluator's.  An array's ** 2 in place of each scalar's differed in
    # about 1 value of 1,400 here.
    rng = np.random.default_rng(27)
    spec = GraphSpec(211, 3.0)
    gamma, boundaries, _, _, propagator = dynamics._detuned_frame(spec, stage)
    props = [propagator(np.linalg.eigh(reduced_hamiltonian(spec, gamma * (1 + eps))))
             for eps in (-0.3, -1e-3, 0.0, 2e-4, 0.05, 4.0)]
    stacked = dynamics._stacked_probability(boundaries, props)
    scalar = [prop.probability(0) for prop in props]
    for _ in range(200):
        which = rng.integers(len(props), size=30).tolist()
        ts = [*rng.uniform(-1.0, 1.01 * boundaries[-1], size=28), *boundaries[1:]]
        assert stacked(which, ts) == [scalar[b](t) for b, t in zip(which, ts)]


def test_grid_peak_keeps_the_first_of_equal_grid_values():
    # a constant probability (every eigenvalue 0): every grid point ties, and
    # the grid phase must keep the first, as an argmax over the whole grid
    # does, also through the pair cut of the 9,000-point first stage
    stages, boundaries, times, pieces = dynamics._peak_frame(GraphSpec(20, 1.0),
                                                             [(1.0, 9.0), (1.0, 1.0)])
    coeff = np.linspace(0.1, 0.7, 7).astype(complex)
    prop = dynamics._Propagator(boundaries, [(np.zeros(7), np.eye(7), coeff)] * 2)
    values = np.abs(prop.amplitudes(times, 0)) ** 2
    assert (values == values[0]).all() and len(times[pieces[0]]) >= dynamics._PAIR_CUT_POINTS
    assert dynamics._grid_peak(prop, times, pieces) == (0, values[0])


def test_width_scan_rejects_bad_stage(monkeypatch):
    with pytest.raises(ValueError):
        width_scan(GraphSpec(500, 1.0), 3, [0.0])
    # each detuned gamma is refused in offset order, before the detuned stack
    # is diagonalised: only the fixed stage's eigensolve has run
    calls = _count_calls(monkeypatch, np.linalg, "eigh")
    with pytest.raises(ValueError, match="offset -1.0 drives gamma nonpositive"):
        width_scan(GraphSpec(50, 1.0), 1, [1e-6, 2e-6, -1.0])
    with pytest.raises(ValueError, match="gamma must be finite and > 0"):
        width_scan(GraphSpec(50, 1.0), 1, [1e-6, math.nan])
    assert [m.shape for m, in calls] == [(7, 7)] * 2


@settings(max_examples=60, deadline=None)
@given(
    M=st.integers(3, 10**6),
    w=st.floats(0.1, 10.0),
    rate=st.floats(0.5, 3.0),
    detunings=st.lists(st.floats(-0.9, 9.0), min_size=1, max_size=41),
)
def test_stacked_eigensolve_equals_one_solve_per_gamma(M, w, rate, detunings):
    # width_scan diagonalises its detuned generators as one stack: each
    # eigensystem must be bit for bit what a solve of its own gives.  Both
    # critical rates are near 1/M to 2/M.
    spec = GraphSpec(M, w)
    gammas = rate / M * (1.0 + np.array(detunings))
    stack = _search_generator(reduced_adjacency(spec), gammas[:, None, None])
    lams, vecs = np.linalg.eigh(stack)
    for gamma, matrix, lam, vec in zip(gammas, stack, lams, vecs):
        alone = reduced_hamiltonian(spec, gamma)
        assert matrix.tobytes() == alone.tobytes()
        lam_alone, vec_alone = np.linalg.eigh(alone)
        assert lam.tobytes() == lam_alone.tobytes()
        assert vec.tobytes() == vec_alone.tobytes()


@pytest.mark.parametrize("stage, searches", [(1, 11), (2, 12)])
def test_stage_half_width_diagonalises_each_gamma_once(monkeypatch, stage, searches):
    eigh_calls = _count_calls(monkeypatch, np.linalg, "eigh")
    peak_calls = _count_calls(monkeypatch, dynamics, "_peak")
    frames = _count_calls(monkeypatch, dynamics, "_peak_frame")
    monkeypatch.setattr(dynamics, "peak_success", None)
    monkeypatch.setattr(dynamics, "width_scan", None)
    stage_half_width(GraphSpec(500, 1.0), stage)
    # one per peak search for the detuned gamma, plus the fixed stage once
    assert len(peak_calls) == searches
    assert [m.shape for m, in eigh_calls] == [(7, 7)] * (searches + 1)
    assert len(frames) == 1


def _reference_half_width(spec, stage):
    """``stage_half_width`` as it was before the closed-form seed: steps of 4
    down and 1.5 up from 1e-3 M^-1.5 to a bracket, then bisection to 1e-10
    relative."""
    peak = dynamics._detuned_peak(spec, stage)
    half = peak(0.0) / 2
    scale = spec.M ** -1.5
    eps = 1e-3 * scale
    while peak(eps) <= half:
        eps /= 4.0
        if eps < 1e-12 * scale:
            raise RuntimeError("peak success is degraded at arbitrarily small detuning")
    lo, hi = eps, 1.5 * eps
    while peak(hi) > half:
        lo = hi
        hi *= 1.5
        if hi > 10.0 / math.sqrt(spec.M):
            raise RuntimeError("no halving detuning found below 10/sqrt(M)")
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if peak(mid) > half:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("M", [10, 13, 50, 500, 5000, 20000])
def test_stage_half_width_matches_the_bisection_reference(M):
    for w in (0.5, 1.0, 2.8):
        for stage in (1, 2):
            spec = GraphSpec(M, w)
            try:
                expected = _reference_half_width(spec, stage)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                    stage_half_width(spec, stage)
            else:
                assert stage_half_width(spec, stage) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("factor", [0.05, 20.0, math.nan])
def test_stage_half_width_does_not_depend_on_the_seed(monkeypatch, factor):
    cases = [(GraphSpec(M, w), stage) for M, w in [(50, 1.0), (500, 2.8)] for stage in (1, 2)]
    expected = [stage_half_width(spec, stage) for spec, stage in cases]
    closed_form = theory.half_width
    monkeypatch.setattr(theory, "half_width",
                        lambda spec, stage: factor * closed_form(spec, stage))
    for (spec, stage), eps in zip(cases, expected):
        assert stage_half_width(spec, stage) == pytest.approx(eps, rel=1e-9)
    # the stage-2 peak at M = 13, w = 2.8 stays above half up to 10/sqrt(M)
    with pytest.raises(RuntimeError, match="no halving detuning found below 10/sqrt"):
        stage_half_width(GraphSpec(13, 2.8), 2)


def test_stage_half_width_rejects_bad_stage(monkeypatch):
    monkeypatch.setattr(dynamics, "two_stage_schedule", None)
    for stage in (0, 3):
        with pytest.raises(ValueError, match="stage must be 1 or 2"):
            stage_half_width(GraphSpec(500, 1.0), stage)


def test_optimal_stage1_duration_ratio():
    t_w1, pb_w1 = optimal_stage1_duration(GraphSpec(1000, 1.0))
    t_w3, pb_w3 = optimal_stage1_duration(GraphSpec(1000, 3.0))
    assert pb_w1 > 0.9 and pb_w3 > 0.9
    assert t_w1 / t_w3 == pytest.approx(2.0, rel=0.05)
    assert t_w1 == pytest.approx(np.pi * 1000**1.5 / 4, rel=0.01)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: certified maximiser")
def test_optimal_stage1_duration_finds_the_maximum_between_grid_points():
    # the grid search returns 0.9951533412 at t = 24862.32; dense sampling at
    # a 0.005 step finds 0.9951538440 at t = 24874.84.  lambda_max - lambda_min
    # is about 2.0, so prob_b ripples with a period near pi, and the
    # 20,001-point grid over [0, 1.6 t1] steps about 2.0
    spec = GraphSpec(1000, 1.0)
    _, p_opt = optimal_stage1_duration(spec)
    lam, vecs = np.linalg.eigh(reduced_hamiltonian(spec, two_stage_schedule(spec)[0].gamma))
    coeff = vecs.T @ reduced_initial_state(spec)
    times = np.linspace(24850.0, 24900.0, 10_001)
    dense = np.abs(vecs[1] @ (np.exp(-1j * lam[:, None] * times) * coeff[:, None])) ** 2
    assert p_opt >= dense.max() - 1e-12


@pytest.mark.parametrize("stage", [1, 2])
def test_stage_half_width_brackets_half_the_baseline(stage):
    spec = GraphSpec(500, 1.0)
    eps = stage_half_width(spec, stage)
    _, baseline = peak_success(spec, two_stage_schedule(spec))
    inner, outer = width_scan(spec, stage, [eps * (1 - 1e-6), eps * (1 + 1e-6)])
    assert inner > baseline / 2 > outer
