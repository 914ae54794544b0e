"""Closed-form predictions against their numeric counterparts."""

import math

import numpy as np
import pytest

from simplexwalk import (
    GraphSpec,
    algebraic_connectivity,
    algebraic_connectivity_formula,
    census_formulas,
    classify_vertices,
    edge_census,
    gamma_c1_exact,
    predict,
    theory,
    unperturbed_pair,
    validity_margin,
)


def test_predict_m1000_w1():
    pred = predict(GraphSpec(1000, 1.0))
    assert pred.gamma_c1 == 0.002
    assert pred.gamma_c2 == 0.001
    assert pred.t1 == pytest.approx(24836.471, abs=1e-3)
    assert pred.t2 == pytest.approx(49.673, abs=1e-3)


def test_predict_m1000_w3():
    pred = predict(GraphSpec(1000, 3.0))
    assert pred.gamma_c1 == pytest.approx(4 / 3000, rel=1e-12)
    assert pred.t1 == pytest.approx(12418.235, abs=1e-3)
    assert pred.gamma_c2 == 0.001


def test_w1_reduces_to_unweighted_values():
    pred = predict(GraphSpec(1000, 1.0))
    assert pred.gamma_c1 == 2 / 1000
    assert pred.gap1 == 4 / 1000**1.5
    assert pred.t1 == math.pi * 1000**1.5 / 4


def test_prediction_invariants():
    for M, w in [(3, 0.5), (10, 1.0), (1000, 5.0), (4000, 2.0)]:
        pred = predict(GraphSpec(M, w))
        assert pred.gamma_c1 > pred.gamma_c2
        assert pred.t1 * pred.gap1 == pytest.approx(math.pi, rel=1e-14)
        assert pred.t2 * pred.gap2 == pytest.approx(math.pi, rel=1e-14)
        assert pred.R_u >= 0 and pred.R_v >= 0
        assert pred.E_minus > pred.E_plus


def test_critical_rates_converge_as_w_grows():
    gaps = [
        predict(GraphSpec(10_000, w)).gamma_c1 - predict(GraphSpec(10_000, w)).gamma_c2
        for w in (1.0, 4.0, 16.0, 64.0)
    ]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)


def test_stage1_time_scaled_by_weight_is_constant():
    reference = predict(GraphSpec(729, 1.0)).t1 * 2
    for w in (0.5, 2.0, 3.0, 7.0):
        pred = predict(GraphSpec(729, w))
        assert pred.t1 * (1 + w) == pytest.approx(reference, rel=1e-14)


def test_radicands_nonnegative_on_a_grid():
    from simplexwalk.theory import radicands

    for M in (3, 5, 17, 100, 4000):
        for w in (0.1, 1.0, 3.0, 10.0):
            for gamma in (1e-5, 1.0 / M, 4.0 / M, 1.0):
                r_u, r_v = radicands(M, w, gamma)
                assert r_u >= 0
                assert r_v >= 0
                _, _, e_u, e_v = unperturbed_pair(GraphSpec(M, w), gamma)
                assert np.isfinite(e_u) and np.isfinite(e_v)


def test_unperturbed_pair_rejects_nonfinite_or_nonpositive_gamma():
    for gamma in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            unperturbed_pair(GraphSpec(100, 1.0), gamma)


def test_unperturbed_eigenvalues_degenerate_at_gamma_c1():
    for w in (1.0, 3.0):
        spec = GraphSpec(1000, w)
        pred = predict(spec)
        _, _, e_u, e_v = unperturbed_pair(spec, pred.gamma_c1)
        assert e_u == pytest.approx(e_v, rel=0.005)
        assert (pred.E_u, pred.E_v) == (e_u, e_v)


def test_predict_refuses_a_weight_whose_stage1_rate_overflows():
    assert math.isfinite(predict(GraphSpec(10, 1e-300)).gamma_c1)
    for w in (1e-309, 5e-324):
        with pytest.raises(ValueError, match="stage-1 rate"):
            predict(GraphSpec(10, w))


@pytest.mark.parametrize("M", [1000, 4000])
@pytest.mark.parametrize("w", [1.0, 2.0])
def test_unperturbed_states_localize_at_large_M(M, w):
    spec = GraphSpec(M, w)
    u, v, _, _ = unperturbed_pair(spec, predict(spec).gamma_c1)
    assert u[1] ** 2 >= 1 - 10 / M
    assert v[6] ** 2 >= 1 - 10 / M


def test_exact_degeneracy_root_close_to_leading_order():
    for M, w in [(1000, 3.0), (1000, 1.0), (4000, 2.0), (1000, 0.25)]:
        leading = (1 + 1 / w) / M
        assert gamma_c1_exact(GraphSpec(M, w)) == pytest.approx(leading, rel=5.0 / M)


def test_exact_degeneracy_root_refuses_a_weight_whose_bracket_overflows():
    assert math.isfinite(gamma_c1_exact(GraphSpec(10, 1e-30)))
    for w in (1e-308, 1e-320, 5e-324):
        with pytest.raises(ValueError, match="too small"):
            gamma_c1_exact(GraphSpec(10, w))


def test_half_width_stage1_constant_halves_the_rabi_peak():
    x = theory._X_HALF_STAGE1
    peak = math.sin(0.5 * math.pi * math.sqrt(1 + x * x)) ** 2 / (1 + x * x)
    assert peak == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("M, w", [(10, 0.5), (1000, 1.0), (4000, 3.0), (10**6, 15.0)])
def test_half_width_closed_forms(M, w):
    spec = GraphSpec(M, w)
    pred = predict(spec)
    assert theory.half_width(spec, 2) == pred.gap2 / (M - 2)
    # the stage-1 slope is d(E_v - E_u)/dgamma for the energies -gamma E of
    # H = -gamma K, taken here by a central difference of E_u
    gamma, h = pred.gamma_c1, 1e-6 * pred.gamma_c1
    below, above = (g * unperturbed_pair(spec, g)[2] for g in (gamma - h, gamma + h))
    slope = abs(pred.E_v - (above - below) / (2 * h))
    assert theory.half_width(spec, 1) == pytest.approx(
        theory._X_HALF_STAGE1 * pred.gap1 / slope, rel=1e-6)
    # the slope tends to w (1 + w), so both tend to their leading orders,
    # 2 x* / (w M^1.5) and 2 / M^1.5
    assert theory.half_width(spec, 1) * w * M**1.5 == pytest.approx(
        2 * theory._X_HALF_STAGE1, rel=4 * (1 + w) ** 2 / M)
    assert theory.half_width(spec, 2) * M**1.5 == pytest.approx(2.0, rel=3.0 / M)


def test_half_width_rejects_bad_stage():
    for stage in (0, 3):
        with pytest.raises(ValueError, match="stage must be 1 or 2"):
            theory.half_width(GraphSpec(100, 1.0), stage)


def test_census_formulas_m5():
    counts = census_formulas(5)
    assert [counts[k] for k in (("a", "c", "w"), ("b", "e", "w"), ("d", "f", "w"), ("g", "g", "w"))] == [1, 4, 4, 6]
    assert counts[("b", "b", "1")] == 6
    assert counts[("e", "g", "1")] == 12
    assert counts[("g", "g", "1")] == 12


def test_census_formulas_m3_gg_unit_vanishes():
    assert census_formulas(3)[("g", "g", "1")] == 0


def test_census_formulas_m10_totals():
    counts = census_formulas(10)
    weighted = sum(v for k, v in counts.items() if k[2] == "w")
    unit = sum(v for k, v in counts.items() if k[2] == "1")
    assert weighted == 55
    assert unit == 495
    assert weighted + unit == 550


@pytest.mark.parametrize("M", range(3, 13))
def test_census_formulas_match_graph_enumeration(M):
    spec = GraphSpec(M, 1.0)
    assert edge_census(spec, classify_vertices(spec)) == census_formulas(M)


def test_connectivity_formula_values():
    assert algebraic_connectivity_formula(4, 2.0) == pytest.approx(
        0.5 * (8 - math.sqrt(24)), rel=1e-15
    )
    assert algebraic_connectivity_formula(10, 1.0) == pytest.approx(1.0, abs=1e-12)
    # large-M limit: the connectivity approaches the coupling weight
    assert algebraic_connectivity_formula(100, 5.0) == pytest.approx(5.0, rel=0.05)


@pytest.mark.parametrize("M", [3, 13, 1000, 10**6, 2**53])
def test_connectivity_formula_is_accurate_from_tiny_to_huge_w(M):
    mpmath = pytest.importorskip("mpmath")
    for w in np.logspace(-9, 300, 207):
        w = float(w)
        # the textbook form (M + 2w - R) / 2 cancels up to |log10 w| + log10 M
        # + 1 digits, so the working precision grows with them: 50 survive
        with mpmath.workdps(52 + round(abs(math.log10(w)) + math.log10(M))):
            m, x = mpmath.mpf(M), mpmath.mpf(w)
            exact = (m + 2 * x - mpmath.sqrt(m * m - 4 * x + 4 * x * x)) / 2
            got = algebraic_connectivity_formula(M, w)
            assert abs(got - exact) <= 4 * np.finfo(float).eps * exact, (M, w)


@pytest.mark.parametrize("M", [3, 6, 12, 20])
@pytest.mark.parametrize("w", [0.5, 2.0])
def test_connectivity_formula_matches_numeric(M, w):
    assert algebraic_connectivity(GraphSpec(M, w)) == pytest.approx(
        algebraic_connectivity_formula(M, w), abs=1e-8
    )


def test_validity_margin_values():
    assert validity_margin(GraphSpec(1000, 1.0)) == pytest.approx(math.sqrt(1000), rel=1e-12)
    assert validity_margin(GraphSpec(1000, 31.6)) == pytest.approx(1.0, rel=0.01)
    assert validity_margin(GraphSpec(1000, 5.0)) == pytest.approx(6.3246, rel=1e-4)


def test_predict_warns_outside_validity_regime():
    with pytest.warns(UserWarning):
        predict(GraphSpec(100, 12.0))


def test_operator_norm_field():
    assert predict(GraphSpec(42, 2.5)).op_norm_A == 42 + 2.5 - 1
