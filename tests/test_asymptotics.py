"""Concentration bubbles, energy curves, expansion table, and fits."""

import math

import numpy as np
import pytest

import critvar.asymptotics
from critvar import (BubbleParams, Case, FieldPair, WeightProfile,
                     bubble_constants, bubble_field, correction_constant,
                     default_eps_ladder, energy, energy_curves,
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


def test_bubble_matched_profile(grid5_geo):
    # on the cutoff's plateau, eps^(3/4) u_eps(sqrt(eps) y) = (1 + y^2)^(-3/2)
    eps = 1e-4
    u = bubble_field(BubbleParams(eps, 0.9), grid5_geo)
    y = grid5_geo.nodes / math.sqrt(eps)
    inside = y < 1.0
    target = (1.0 + y[inside] ** 2) ** (-1.5)
    assert np.max(np.abs(eps ** 0.75 * u[inside] - target)) < 1e-6


def test_default_ladder_shape(grid5_fine):
    ladder = default_eps_ladder(grid5_fine, 0.9)
    assert len(ladder) >= 5
    assert all(b == pytest.approx(a / 2.0) for a, b in zip(ladder, ladder[1:]))
    assert math.sqrt(ladder[0]) <= 0.9 / 8.0 * (1 + 1e-12)


def test_energy_curve_flat_for_constant_weights(grid5_geo):
    # a = b = gamma0, lam = 0: curve sits at gamma0 * S with sub-percent drift
    gamma0 = 2.0
    w = WeightProfile(gamma0)
    ladder = [1e-3 / 2 ** j for j in range(5)]
    vals = energy_curves([0.0], w, w, ladder, grid5_geo)[0]
    s = bubble_constants(5).s
    assert all(v == pytest.approx(gamma0 * s, rel=1e-2) for v in vals)
    assert (max(vals) - min(vals)) / (gamma0 * s) < 0.01


def test_energy_curve_validates_ladder(grid5_geo, unit_weight):
    # empty, non-decreasing and non-positive ladders
    for ladder in ([], [1e-3, 1e-3], [1e-3, 2e-3], [1e-3, 0.0], [-1e-3]):
        with pytest.raises(ValueError):
            energy_curves([0.0, 1.0], unit_weight, unit_weight, ladder, grid5_geo)


def test_energy_curves_non_finite_coupling(grid5_geo, unit_weight):
    with pytest.raises(NumericFault):
        energy_curves([1.0, math.nan], unit_weight, unit_weight, [1e-3, 5e-4],
                      grid5_geo)


@pytest.mark.parametrize("dim", [4, 5])
def test_energy_curves_match_one_shot_energy(dim, quad_weight, quartic_weight):
    # the shared per-eps terms give every coupling exactly the value of a
    # one-shot energy() call on the symmetric pair
    g = critvar.build_grid(dim, 1.0, 1500, grading="geometric", ratio=1.004)
    ladder = [2e-3 / 2 ** j for j in range(4)]
    lams = [0.0, 7.25, 12.5, 9.875]
    values = energy_curves(lams, quad_weight, quartic_weight, ladder, g, 0.5)
    assert isinstance(values, np.ndarray)
    assert values.shape == (len(lams), len(ladder))
    for i, lam in enumerate(lams):
        for j, eps in enumerate(ladder):
            u = bubble_field(BubbleParams(eps, 0.5), g)
            ref = energy(FieldPair(u=u, v=u.copy()), quad_weight, quartic_weight,
                         lam, g)
            assert values[i, j] == ref.value
    assert np.array_equal(
        energy_curves([9.875], quad_weight, quartic_weight, ladder, g, 0.5),
        values[-1:])


def test_energy_curves_build_each_field_once(grid5_geo, quad_weight, monkeypatch):
    # one field per rung, and one sampling of the cutoff, which does not
    # depend on eps, per call
    calls, cutoffs = [], []
    cutoff = BubbleParams.cutoff

    def counting_bubble_field(params, grid, *args):
        calls.append(params.epsilon)
        return bubble_field(params, grid, *args)

    def counting_cutoff(self, r):
        cutoffs.append(self.cutoff_radius)
        return cutoff(self, r)

    monkeypatch.setattr(critvar.asymptotics, "bubble_field", counting_bubble_field)
    monkeypatch.setattr(BubbleParams, "cutoff", counting_cutoff)
    ladder = [1e-3 / 2 ** j for j in range(5)]
    curves = energy_curves([0.5 * j for j in range(12)], quad_weight, quad_weight,
                           ladder, grid5_geo)
    assert len(curves) == 12
    assert calls == ladder
    assert cutoffs == [0.9 * grid5_geo.radius]


# --- regime dispatch --------------------------------------------------------


def test_prediction_quadratic_both_dim5():
    c = bubble_constants(5)
    pred = expansion_prediction(Case(5, 2.0, 2.0, 1.0, 1.0), 10.0)
    assert pred.scale == "eps"
    assert pred.coeff == pytest.approx(-(10.0 - 105.0 / 16.0) * c.k3 / c.k2,
                                       rel=1e-12)


def test_prediction_supercritical_dim5():
    c = bubble_constants(5)
    pred = expansion_prediction(Case(5, 4.0, 3.0, 1.0, 1.0), 7.0)
    assert pred.coeff == pytest.approx(-7.0 * c.k3 / c.k2, rel=1e-12)


def test_prediction_mixed_dim5():
    c = bubble_constants(5)
    m5 = slope_factor(5)
    pred = expansion_prediction(Case(5, 2.0, 4.0, 2.0, 1.0), 10.0)
    assert pred.coeff == pytest.approx(-(10.0 - 2.0 * m5) * c.k3 / c.k2, rel=1e-12)


def test_prediction_dim4_log_scale_sign():
    pred_lo = expansion_prediction(Case(4, 2.0, 4.0, 1.0, 1.0), 0.5)
    pred_hi = expansion_prediction(Case(4, 2.0, 4.0, 1.0, 1.0), 2.0)
    assert pred_lo.scale == "eps_log_eps" == pred_hi.scale
    assert pred_lo.coeff > 0.0 > pred_hi.coeff  # sign flips at lam = A2


def test_prediction_dim4_subquadratic_scale_only():
    pred = expansion_prediction(Case(4, 1.5, 2.0, 1.0, 1.0), 3.0)
    assert pred.scale == "eps_pow"
    assert pred.power == pytest.approx(0.75)
    assert pred.coeff == pytest.approx(
        correction_constant(4, 1.0, 1.5) / bubble_constants(4).k2, rel=1e-12)


def test_prediction_outside_table():
    with pytest.raises(OutsideTable):
        expansion_prediction(Case(5, 1.5, 2.0, 1.0, 1.0), 3.0)
    with pytest.raises(OutsideTable):
        expansion_prediction(Case(4, 1.5, 1.0, 1.0, 1.0), 3.0)


# --- fitting ----------------------------------------------------------------


def test_fit_exact_linear_data():
    eps = [1e-2 / 2 ** j for j in range(6)]
    fit = fit_expansion(eps, [3.0 - 2.0 * e for e in eps], "eps")
    assert fit.intercept == pytest.approx(3.0, rel=1e-10)
    assert fit.leading_coeff == pytest.approx(-2.0, rel=1e-8)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_of_a_table_matches_the_fit_of_each_row(grid4, quad_weight, quartic_weight):
    # every row shares the design matrix, so one solve fits the table
    ladder = default_eps_ladder(grid4, 0.5)
    curves = energy_curves([0.5 * j for j in range(12)], quad_weight, quartic_weight,
                           ladder, grid4, 0.5)
    fits = fit_expansion(ladder, curves, "eps_log_eps")
    assert len(fits) == len(curves)
    for fit, curve in zip(fits, curves):
        one = fit_expansion(ladder, curve, "eps_log_eps")
        for field in ("leading_coeff", "intercept", "r_squared"):
            assert getattr(fit, field) == pytest.approx(getattr(one, field),
                                                        rel=1e-12, abs=0.0)


def test_fit_needs_points_and_spread():
    with pytest.raises(FitFailure):
        fit_expansion([1e-3] * 3, [1.0] * 3, "eps")
    with pytest.raises(FitFailure):
        fit_expansion([1e-3] * 6, [1.0] * 6, "eps")   # zero spread


def test_dim4_model_selection(grid4):
    # log-scaled data fits the log scale variable markedly better
    import critvar

    g = critvar.build_grid(4, 1.0, 3000, grading="geometric", ratio=1.004)
    a = WeightProfile(1.0, 2.0, 1.0)
    ladder = [1e-2 / 2 ** j for j in range(9)]
    curve = energy_curves([10.0], a, a, ladder, g)[0]
    fit_log = fit_expansion(ladder, curve, "eps_log_eps")
    fit_lin = fit_expansion(ladder, curve, "eps")
    assert fit_log.r_squared > fit_lin.r_squared
    assert fit_log.leading_coeff < 0.0  # lam above the dim-4 log-scale threshold
