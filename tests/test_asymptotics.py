"""Concentration bubbles, rescaling, expansion table, and fits."""

import math

import numpy as np
import pytest

import critvar.asymptotics
from critvar import (BubbleParams, FieldPair, WeightProfile, blowup_rescale,
                     bubble_constants, bubble_field, correction_constant,
                     default_eps_ladder, energy, energy_curve, energy_curves,
                     expansion_prediction, fit_expansion, lq_norm, slope_factor,
                     unit_sphere_area, weighted_gradient_energy)
from critvar.errors import (FitFailure, NumericFault, OutsideTable,
                            UnderResolvedBubble)


def test_bubble_center_value(grid5_geo):
    eps = 1e-3
    u = bubble_field(BubbleParams(eps, 0.9), grid5_geo)
    assert u[0] == pytest.approx(eps ** (-0.75), rel=1e-12)
    assert u[-1] == 0.0


def test_bubble_under_resolved(grid5):
    with pytest.raises(UnderResolvedBubble):
        bubble_field(BubbleParams(1e-8, 0.9), grid5)


def test_bubble_cutoff_support(grid5_geo):
    u = bubble_field(BubbleParams(1e-3, 0.5), grid5_geo)
    outside = grid5_geo.nodes >= 0.5
    assert np.all(u[outside] == 0.0)


def test_qnorm_eps_independent(grid5_geo):
    eps = 1e-3
    n1 = lq_norm(bubble_field(BubbleParams(eps, 0.9), grid5_geo), grid5_geo)
    n2 = lq_norm(bubble_field(BubbleParams(eps / 4.0, 0.9), grid5_geo), grid5_geo)
    assert n2 == pytest.approx(n1, rel=1e-5)


def test_gradient_energy_approaches_k1(grid5_geo, unit_weight):
    k1 = bubble_constants(5).k1
    errs = []
    for eps in (1e-3, 1e-4, 1e-5):
        u = bubble_field(BubbleParams(eps, 0.9), grid5_geo)
        errs.append(abs(weighted_gradient_energy(u, unit_weight, grid5_geo) - k1))
    assert errs[0] < 0.01 and errs[1] < errs[0] and errs[2] < errs[1]


def test_blowup_identity(grid5, rng):
    from conftest import smooth_dirichlet_field

    u = smooth_dirichlet_field(grid5, rng)
    g2, w = blowup_rescale(u, 1.0, grid5)
    assert np.array_equal(w, u)
    assert np.array_equal(g2.nodes, grid5.nodes)


def test_blowup_preserves_critical_norm(grid5_geo):
    u = bubble_field(BubbleParams(1e-3, 0.9), grid5_geo)
    g2, w = blowup_rescale(u, 0.02, grid5_geo)
    assert lq_norm(w, g2) == pytest.approx(lq_norm(u, grid5_geo), rel=1e-13)


def test_blowup_matched_profile(grid5_geo):
    eps = 1e-4
    u = bubble_field(BubbleParams(eps, 0.9), grid5_geo)
    g2, w = blowup_rescale(u, math.sqrt(eps), grid5_geo)
    target = (1.0 + g2.nodes ** 2) ** (-1.5)
    inside = g2.nodes < 1.0
    assert np.max(np.abs(w[inside] - target[inside])) < 1e-6


def test_blowup_round_trip(grid5_geo):
    u = bubble_field(BubbleParams(1e-3, 0.9), grid5_geo)
    g2, w = blowup_rescale(u, 0.01, grid5_geo)
    _, back = blowup_rescale(w, 100.0, g2)
    assert np.max(np.abs(back - u)) < 1e-12 * np.max(np.abs(u))


def test_default_ladder_shape(grid5_fine):
    ladder = default_eps_ladder(grid5_fine, 0.9)
    assert len(ladder) >= 5
    assert all(b == pytest.approx(a / 2.0) for a, b in zip(ladder, ladder[1:]))
    assert math.sqrt(ladder[0]) <= 0.9 / 8.0 * (1 + 1e-12)


def test_energy_curve_flat_for_constant_weights(grid5_geo):
    # a = b = gamma0, lam = 0: curve sits at gamma0 * S with sub-percent drift
    gamma0 = 2.0
    w = WeightProfile.constant(gamma0)
    ladder = [1e-3 / 2 ** j for j in range(5)]
    curve = energy_curve(0.0, w, w, ladder, grid5_geo)
    s = bubble_constants(5).s
    vals = [rep.value for _, rep in curve]
    assert all(v == pytest.approx(gamma0 * s, rel=1e-2) for v in vals)
    assert (max(vals) - min(vals)) / (gamma0 * s) < 0.01


def test_energy_curve_validates_ladder(grid5_geo, unit_weight):
    # empty, non-decreasing and non-positive ladders, through both entry points
    for ladder in ([], [1e-3, 1e-3], [1e-3, 2e-3], [1e-3, 0.0], [-1e-3]):
        with pytest.raises(ValueError):
            energy_curve(0.0, unit_weight, unit_weight, ladder, grid5_geo)
        with pytest.raises(ValueError):
            energy_curves([0.0, 1.0], unit_weight, unit_weight, ladder, grid5_geo)


def test_energy_curves_non_finite_coupling(grid5_geo, unit_weight):
    with pytest.raises(NumericFault):
        energy_curves([1.0, math.nan], unit_weight, unit_weight, [1e-3, 5e-4],
                      grid5_geo)


@pytest.mark.parametrize("dim", [4, 5])
def test_energy_curves_match_one_shot_energy(dim, quad_weight, quartic_weight):
    # the shared per-eps terms give every coupling exactly the report of a
    # one-shot energy() call on the symmetric pair
    g = critvar.build_grid(dim, 1.0, 1500, grading="geometric", ratio=1.004)
    ladder = [2e-3 / 2 ** j for j in range(4)]
    lams = [0.0, 7.25, 12.5, 9.875]
    curves = energy_curves(lams, quad_weight, quartic_weight, ladder, g, 0.5)
    assert len(curves) == len(lams)
    for lam, curve in zip(lams, curves):
        assert [eps for eps, _ in curve] == ladder
        for eps, rep in curve:
            u = bubble_field(BubbleParams(eps, 0.5), g)
            ref = energy(FieldPair(u=u, v=u.copy()), quad_weight, quartic_weight,
                         lam, g)
            assert rep == ref
    assert energy_curve(9.875, quad_weight, quartic_weight, ladder, g, 0.5) \
        == curves[-1]


def test_energy_curves_build_each_field_once(grid5_geo, quad_weight, monkeypatch):
    calls = []

    def counting_bubble_field(params, grid):
        calls.append(params.epsilon)
        return bubble_field(params, grid)

    monkeypatch.setattr(critvar.asymptotics, "bubble_field", counting_bubble_field)
    ladder = [1e-3 / 2 ** j for j in range(5)]
    curves = energy_curves([0.5 * j for j in range(12)], quad_weight, quad_weight,
                           ladder, grid5_geo)
    assert len(curves) == 12
    assert calls == ladder


# --- regime dispatch --------------------------------------------------------


def test_prediction_quadratic_both_dim5():
    c = bubble_constants(5)
    pred = expansion_prediction(5, 2.0, 2.0, 1.0, 1.0, 10.0)
    assert pred.scale == "eps"
    assert pred.coeff == pytest.approx(-(10.0 - 105.0 / 16.0) * c.k3 / c.k2,
                                       rel=1e-12)


def test_prediction_supercritical_dim5():
    c = bubble_constants(5)
    pred = expansion_prediction(5, 4.0, 3.0, 1.0, 1.0, 7.0)
    assert pred.coeff == pytest.approx(-7.0 * c.k3 / c.k2, rel=1e-12)


def test_prediction_mixed_dim5():
    c = bubble_constants(5)
    m5 = slope_factor(5)
    pred = expansion_prediction(5, 2.0, 4.0, 2.0, 1.0, 10.0)
    assert pred.coeff == pytest.approx(-(10.0 - 2.0 * m5) * c.k3 / c.k2, rel=1e-12)


def test_prediction_dim4_log_scale_sign():
    pred_lo = expansion_prediction(4, 2.0, 4.0, 1.0, 1.0, 0.5)
    pred_hi = expansion_prediction(4, 2.0, 4.0, 1.0, 1.0, 2.0)
    assert pred_lo.scale == "eps_log_eps" == pred_hi.scale
    assert pred_lo.coeff > 0.0 > pred_hi.coeff  # sign flips at lam = A2


def test_prediction_dim4_subquadratic_scale_only():
    pred = expansion_prediction(4, 1.5, 2.0, 1.0, 1.0, 3.0)
    assert pred.scale == "eps_pow"
    assert pred.power == pytest.approx(0.75)
    assert pred.coeff == pytest.approx(
        correction_constant(4, 1.0, 1.5) / bubble_constants(4).k2, rel=1e-12)


def test_prediction_outside_table():
    with pytest.raises(OutsideTable):
        expansion_prediction(5, 1.5, 2.0, 1.0, 1.0, 3.0)
    with pytest.raises(OutsideTable):
        expansion_prediction(4, 1.5, 1.0, 1.0, 1.0, 3.0)


# --- fitting ----------------------------------------------------------------


def test_fit_exact_linear_data():
    eps = [1e-2 / 2 ** j for j in range(6)]
    curve = [(e, 3.0 - 2.0 * e) for e in eps]
    fit = fit_expansion(curve, "eps")
    assert fit.intercept == pytest.approx(3.0, rel=1e-10)
    assert fit.leading_coeff == pytest.approx(-2.0, rel=1e-8)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_needs_points_and_spread():
    with pytest.raises(FitFailure):
        fit_expansion([(1e-3, 1.0)] * 3, "eps")
    with pytest.raises(FitFailure):
        fit_expansion([(1e-3, 1.0)] * 6, "eps")   # zero spread


def test_dim4_model_selection(grid4):
    # log-scaled data fits the log scale variable markedly better
    import critvar

    g = critvar.build_grid(4, 1.0, 3000, grading="geometric", ratio=1.004)
    a = WeightProfile.pure_power(1.0, 2.0, 1.0)
    ladder = [1e-2 / 2 ** j for j in range(9)]
    curve = energy_curve(10.0, a, a, ladder, g)
    fit_log = fit_expansion(curve, "eps_log_eps", half_order_correction=False)
    fit_lin = fit_expansion(curve, "eps", half_order_correction=False)
    assert fit_log.r_squared > fit_lin.r_squared
    assert fit_log.leading_coeff < 0.0  # lam above the dim-4 log-scale threshold
