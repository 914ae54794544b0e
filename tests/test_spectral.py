"""Eigendecomposition contract, overlaps, sweeps, and crossing location."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplexwalk import (
    GraphSpec,
    NoCrossingError,
    eigh,
    find_crossing,
    gamma_sweep,
    overlaps,
    probe_state,
    reduced_hamiltonian,
    spectral,
)


def test_eigh_two_by_two():
    spectrum = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spectrum.values, [-1.0, 1.0], atol=1e-14)


def test_eigh_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_eigh_rejects_nonfinite_entries(bad):
    # refused as non-finite before the symmetry check, which nan would fail
    for matrix in ([[bad]], [[0.0, bad], [bad, 0.0]], np.full((3, 2, 2), bad)):
        with pytest.raises(ValueError, match="must be finite"):
            eigh(matrix)


def test_eigh_reconstruction_and_determinism():
    ham = reduced_hamiltonian(GraphSpec(50, 2.0), 0.03)
    s1 = eigh(ham)
    s2 = eigh(ham.copy())
    rebuilt = s1.vectors @ np.diag(s1.values) @ s1.vectors.T
    scale = max(1.0, np.max(np.abs(ham)))
    assert np.max(np.abs(ham - rebuilt)) <= 1e-9 * scale
    assert np.array_equal(s1.values, s2.values)
    assert np.array_equal(s1.vectors, s2.vectors)


def test_eigh_stack_matches_each_slice_exactly():
    spec = GraphSpec(50, 2.0)
    stack = np.stack([reduced_hamiltonian(spec, g) for g in (0.01, 0.03, 0.06, 0.2)])
    batched = eigh(stack)
    assert batched.values.shape == (4, 7) and batched.vectors.shape == (4, 7, 7)
    for k, matrix in enumerate(stack):
        single = eigh(matrix)
        assert np.array_equal(batched.values[k], single.values)
        assert np.array_equal(batched.vectors[k], single.vectors)
    with pytest.raises(ValueError):
        eigh(stack[:, :, :6])
    skewed = stack.copy()
    skewed[2, 0, 1] += 1e-14
    with pytest.raises(ValueError):
        eigh(skewed)


def test_eigh_sign_convention():
    spectrum = eigh(reduced_hamiltonian(GraphSpec(12, 1.5), 0.1))
    for k in range(7):
        column = spectrum.vectors[:, k]
        assert column[np.argmax(np.abs(column))] > 0


def test_stage1_gap_value():
    lam = eigh(reduced_hamiltonian(GraphSpec(1000, 1.0), 0.002)).values
    assert lam[1] - lam[0] == pytest.approx(4 / 1000**1.5, rel=2e-3)


def test_stage2_gap_value():
    lam = eigh(reduced_hamiltonian(GraphSpec(1000, 1.0), 0.001)).values
    assert lam[3] - lam[0] == pytest.approx(2 / np.sqrt(1000), rel=1e-12)


@pytest.mark.parametrize("M", [250, 1000])
@pytest.mark.parametrize("w", [1.0, 2.0, 4.0])
def test_gap_stays_open_at_stage1_crossing(M, w):
    # avoided, not actual, crossing: the split never closes
    gamma_c1 = (1 + 1 / w) / M
    lam = eigh(reduced_hamiltonian(GraphSpec(M, w), gamma_c1)).values
    assert lam[1] - lam[0] > 0


@pytest.mark.parametrize("w", [1.0, 2.0, 4.0])
def test_stage1_gap_scaling_exponent(w):
    sizes = np.array([250, 500, 1000, 2000, 4000])
    gaps = []
    for M in sizes:
        lam = eigh(reduced_hamiltonian(GraphSpec(int(M), w), (1 + 1 / w) / M)).values
        gaps.append(lam[1] - lam[0])
    slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
    assert slope == pytest.approx(-1.5, abs=0.03)


def test_overlap_with_own_eigenvector():
    spectrum = eigh(reduced_hamiltonian(GraphSpec(8, 2.0), 0.2))
    ov = overlaps(spectrum, spectrum.vectors[:, 0])
    assert ov[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(ov[1:]) <= 1e-12


@pytest.mark.parametrize("tag", ["s", "a", "b"])
def test_overlap_completeness(tag):
    spec = GraphSpec(1000, 2.0)
    spectrum = eigh(reduced_hamiltonian(spec, 0.0015))
    assert overlaps(spectrum, probe_state(spec, tag)).sum() == pytest.approx(
        1.0, abs=1e-9
    )


def test_initial_state_splits_half_and_half_at_stage1_crossing():
    spec = GraphSpec(1000, 1.0)
    ov = overlaps(eigh(reduced_hamiltonian(spec, 0.002)), probe_state(spec, "s"))
    assert abs(ov[0] - 0.5) < 0.1
    assert abs(ov[1] - 0.5) < 0.1
    assert ov[0] + ov[1] == pytest.approx(1.0, abs=1e-6)


def test_cluster_state_splits_at_stage2_crossing():
    spec = GraphSpec(1000, 1.0)
    ov = overlaps(eigh(reduced_hamiltonian(spec, 0.001)), probe_state(spec, "b"))
    assert abs(ov[0] - 0.5) < 0.1
    assert abs(ov[3] - 0.5) < 0.1


def test_probe_state_rejects_unknown_tag():
    with pytest.raises(ValueError):
        probe_state(GraphSpec(5, 1.0), "x")


def test_sweep_grid_and_completeness():
    spec = GraphSpec(1000, 1.0)
    result = gamma_sweep(spec, (0.0005, 0.003), 101)
    assert result.gammas.shape == (101,)
    assert result.gammas[0] == 0.0005 and result.gammas[-1] == 0.003
    for tag in ("s", "a", "b"):
        assert np.allclose(result.curves[tag].sum(axis=1), 1.0, atol=1e-9)


def test_sweep_equals_per_gamma_loop():
    spec = GraphSpec(1000, 3.0)
    result = gamma_sweep(spec, (0.0005, 0.003), 200)
    for tag in ("s", "a", "b"):
        probe = probe_state(spec, tag)
        loop = np.array(
            [overlaps(eigh(reduced_hamiltonian(spec, g)), probe) for g in result.gammas]
        )
        assert np.array_equal(result.curves[tag], loop)


@pytest.mark.parametrize("M, w, gamma_range", [
    (1000, 3.0, (0.0005, 0.003)), (10, 0.5, (1e-3, 2.0)), (5000, 1.0, (1e-7, 1e-3)),
])
def test_sweep_stack_is_the_scalar_hamiltonians_without_calling_them(
    monkeypatch, M, w, gamma_range
):
    spec = GraphSpec(M, w)
    stacks = []

    def capturing_eigh(matrix):
        stacks.append(matrix)
        return eigh(matrix)

    monkeypatch.setattr(spectral, "eigh", capturing_eigh)
    monkeypatch.setattr(spectral, "reduced_hamiltonian", None)
    result = gamma_sweep(spec, gamma_range, 500)
    (stack,) = stacks
    loop = np.stack([reduced_hamiltonian(spec, g) for g in result.gammas])
    assert stack.shape == (500, 7, 7)
    assert stack.tobytes() == loop.tobytes()


def _grid_crossing(result, tag, pair):
    diff = result.curves[tag][:, pair[0]] - result.curves[tag][:, pair[1]]
    (idx,) = np.nonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))
    assert len(idx) >= 1
    return 0.5 * (result.gammas[idx[0]] + result.gammas[idx[0] + 1])


def test_sweep_and_crossing_refuse_a_generator_that_overflows():
    spec = GraphSpec(10, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy overflows
        with pytest.raises(ValueError, match="gamma=2 at w=1e\\+308 overflows"):
            gamma_sweep(spec, (1.0, 2.0), 5)
        with pytest.raises(ValueError, match="gamma=2 at w=1e\\+308 overflows"):
            find_crossing(spec, "s", (0, 1), (1.0, 2.0))
    assert len(gamma_sweep(spec, (1e-9, 1.0), 5).gammas) == 5


def test_sweep_reproduces_both_crossings_w1():
    result = gamma_sweep(GraphSpec(1000, 1.0), (0.0005, 0.003), 500)
    assert _grid_crossing(result, "s", (0, 1)) == pytest.approx(0.002, rel=0.05)
    assert _grid_crossing(result, "b", (0, 3)) == pytest.approx(0.001, rel=0.05)


def test_sweep_stage1_crossing_moves_with_weight():
    result = gamma_sweep(GraphSpec(1000, 3.0), (0.0005, 0.003), 500)
    assert _grid_crossing(result, "s", (0, 1)) == pytest.approx(4 / 3000, rel=0.05)
    assert _grid_crossing(result, "b", (0, 3)) == pytest.approx(0.001, rel=0.05)


def test_sweep_rejects_bad_range():
    for bad_range in ((0.3, 0.1), (0.1, np.inf), (0.1, np.nan)):
        with pytest.raises(ValueError):
            gamma_sweep(GraphSpec(5, 1.0), bad_range, 10)
    for points in (1, 2.5):
        with pytest.raises(ValueError, match="points must be an integer"):
            gamma_sweep(GraphSpec(5, 1.0), (0.1, 0.3), points)
    assert len(gamma_sweep(GraphSpec(5, 1.0), (0.1, 0.3), np.int64(2)).gammas) == 2


def test_find_crossing_stage1():
    gamma = find_crossing(GraphSpec(1000, 1.0), "s", (0, 1), (0.0015, 0.0025))
    assert gamma == pytest.approx(0.002, rel=0.05)


def test_find_crossing_stage1_w3():
    gamma = find_crossing(GraphSpec(1000, 3.0), "s", (0, 1), (0.001, 0.002))
    assert gamma == pytest.approx(4 / 3000, rel=0.05)


@pytest.mark.parametrize("w", [1.0, 2.0, 3.0, 5.0])
def test_find_crossing_stage2_is_weight_independent(w):
    gamma = find_crossing(GraphSpec(1000, w), "b", (0, 3), (0.0008, 0.0012))
    assert gamma == pytest.approx(0.001, rel=0.05)


@pytest.mark.parametrize("pair", [(1, 1), (0, -6), (0, 7), (0, 1.0)])
def test_find_crossing_rejects_bad_eig_pair(pair):
    with pytest.raises(ValueError, match="eig_pair"):
        find_crossing(GraphSpec(20, 1.0), "s", pair, (0.09, 0.11))


def test_find_crossing_requires_sign_change():
    with pytest.raises(NoCrossingError):
        find_crossing(GraphSpec(1000, 1.0), "s", (0, 1), (0.0024, 0.003))


def _counted(f):
    """f, and the list its calls are recorded in."""
    calls = []

    def counting(x):
        calls.append(x)
        return f(x)

    return counting, calls


@pytest.mark.parametrize(
    "lo,hi,rel_tol",
    [
        # a tolerance of 0 is never met
        pytest.param(0.0015, 0.0025, 0.0, id="zero_tolerance"),
        # 1e-10 * hi underflows to 0 among subnormals
        pytest.param(1e-316, 3e-316, 1e-10, id="subnormal_bracket"),
    ],
)
def test_bisect_stops_at_float_resolution(lo, hi, rel_tol):
    root = lo + 0.3 * (hi - lo)
    f, calls = _counted(lambda x: root - x)
    x = spectral._bisect(f, lo, hi, rel_tol)
    # x is within one float of the root, reached by halving the bracket
    assert math.nextafter(x, 0.0) <= root <= math.nextafter(x, 1.0)
    assert len(calls) <= 60


_ROOT_FAMILIES = {
    "smooth": lambda root, k: lambda x: math.atan(k * (root - x)),
    "step": lambda root, k: lambda x: 1.0 if x < root else -1.0,
    "flat_then_steep": lambda root, k: lambda x: (root - x) * (1e-6 if x < root else k),
}


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(sorted(_ROOT_FAMILIES)),
    lo=st.floats(1e-6, 1e3),
    span=st.floats(1e-4, 1e2),
    where=st.floats(1e-3, 1.0),
    k=st.floats(1e-2, 1e4),
    flip=st.booleans(),
    rel_tol=st.sampled_from([1e-12, 1e-10, 1e-6, 1e-2]),
)
def test_itp_keeps_bisection_worst_case_plus_n0(family, lo, span, where, k, flip, rel_tol):
    hi = lo * (1 + span)
    root = lo + where * (hi - lo)
    sign = -1.0 if flip else 1.0
    base = _ROOT_FAMILIES[family](root, k)
    f, calls = _counted(lambda x: sign * base(x))
    f_lo, f_hi = sign * base(lo), sign * base(hi)
    assume(f_lo != 0)
    x = spectral._itp(f, lo, hi, f_lo, f_hi, rel_tol)
    assert abs(x - root) <= rel_tol * hi
    bisection = max(0, math.ceil(math.log2((hi - lo) / (rel_tol * hi))))
    assert len(calls) <= bisection + spectral._ITP_N0


def test_itp_converges_faster_than_bisection_on_a_smooth_function():
    f, calls = _counted(lambda x: 2.0 - x * x)
    x = spectral._itp(f, 1.0, 2.0, 1.0, -2.0, 1e-12)
    assert x == pytest.approx(math.sqrt(2.0), rel=1e-12)
    # bisection needs ceil(log2(1 / 2e-12)) = 39 evaluations
    assert len(calls) <= 10
