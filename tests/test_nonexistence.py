"""Dilation identity, scaling quotient, omega bounds, Hardy inequality."""

import math
import warnings

import numpy as np
import pytest

from critvar import (FieldPair, WeightProfile, build_grid, dirichlet_field,
                     omega_bounds, omega_estimate, phi_quotient,
                     pohozaev_report, tilde_weight, unit_sphere_area)
from critvar.errors import DegenerateDenominator, GridTooCoarse, IndefiniteWeight
from conftest import hardy_sides, smooth_dirichlet_field


def test_tilde_pure_power(grid5):
    w = WeightProfile(1.0, 3.0, 2.0)
    t = tilde_weight(w, grid5)
    assert np.allclose(t, 6.0 * grid5.nodes ** 3, rtol=1e-12)


def test_tilde_constant_zero(grid5, unit_weight):
    assert np.allclose(tilde_weight(unit_weight, grid5), 0.0)


def test_tilde_negative_profile(grid5):
    w = WeightProfile(1.0, 2.0, 0.0, ((0.0, 1.0), (0.0, -0.5)))   # 1 - 0.5 r^3
    t = tilde_weight(w, grid5)
    interior = (grid5.nodes > 0.01) & (grid5.nodes < 0.99)
    assert np.all(t[interior] < 0.0)
    assert np.allclose(t[interior], -1.5 * grid5.nodes[interior] ** 3, atol=1e-5)


def test_tilt_that_is_not_finite_is_indefinite_weight():
    # c e = 1e300 * 1e300 is inf while r^(e - 1) is 0 inside the ball: the
    # tilt read nan there, with two RuntimeWarnings, and omega wrote nan
    grid = build_grid(5, 1.0, 200)
    b = WeightProfile(1e300, 1e300, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):                  # a failure is not cached
            with pytest.raises(IndefiniteWeight, match="tilt"):
                tilde_weight(b, grid)
        with pytest.raises(IndefiniteWeight, match="tilt"):
            omega_estimate(WeightProfile(1e300), b, grid)


# --- dilation identity ------------------------------------------------------


def test_pohozaev_zero_pair(grid5, unit_weight):
    zero = np.zeros_like(grid5.nodes)
    rep = pohozaev_report(FieldPair(u=zero, v=zero.copy()), 1.0,
                          unit_weight, unit_weight, grid5)
    assert rep.residual == 0.0
    assert rep.coupling_term == 0.0
    assert rep.boundary_a == 0.0


def test_pohozaev_boundary_positive(grid5, quad_weight, rng):
    u = smooth_dirichlet_field(grid5, rng)
    v = smooth_dirichlet_field(grid5, rng)
    rep = pohozaev_report(FieldPair(u=u, v=v), 2.0, quad_weight, quad_weight, grid5)
    assert rep.boundary_a >= 0.0
    assert rep.boundary_b >= 0.0


def test_pohozaev_terms_by_quadrature(grid5, quad_weight):
    # u = v = 1 - r^2, a = b = 1 + r^2: every term has a closed form
    u = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    lam = 3.0
    rep = pohozaev_report(FieldPair(u=u, v=u.copy()), lam,
                          quad_weight, quad_weight, grid5)
    sigma = unit_sphere_area(5)
    # 2 lam int (1-r^2)^2 = 2 lam sigma (1/5 - 2/7 + 1/9)
    coupling = 2.0 * lam * sigma * (1.0 / 5.0 - 2.0 / 7.0 + 1.0 / 9.0)
    # (1/2) int 2 r^2 * 4 r^2 = 4 sigma / 9
    interior = 4.0 * sigma / 9.0
    # boundary: (1/2) a(1) * 1 * u'(1)^2 * sigma = (1/2) 2 * 4 * sigma
    boundary = 4.0 * sigma
    assert rep.coupling_term == pytest.approx(coupling, rel=1e-5)
    assert rep.interior_a == pytest.approx(interior, rel=1e-5)
    assert rep.boundary_a == pytest.approx(boundary, rel=1e-5)
    assert rep.residual == pytest.approx(
        coupling - 2.0 * interior - 2.0 * boundary, rel=1e-4)


def test_pohozaev_terms_are_phi_integrals(grid5, quad_weight, quartic_weight, rng):
    # the identity's coupling and interior terms are phi's integrals, bit for bit
    from critvar.nonexistence import _tilt_energies

    pair = FieldPair(u=smooth_dirichlet_field(grid5, rng),
                     v=smooth_dirichlet_field(grid5, rng))
    lam = 7.0
    rep = pohozaev_report(pair, lam, quad_weight, quartic_weight, grid5)
    (alpha, beta, gamma), (du, dv) = _tilt_energies(pair, quad_weight,
                                                    quartic_weight, grid5)
    assert rep.interior_a == 0.5 * alpha
    assert rep.interior_b == 0.5 * beta
    assert rep.coupling_term == 2.0 * lam * gamma
    assert np.array_equal((du, dv), pair.derivatives(grid5))


# --- scaling quotient -------------------------------------------------------


def test_phi_constant_weights_zero(grid5, unit_weight, rng):
    u = smooth_dirichlet_field(grid5, rng)
    pair = FieldPair(u=u, v=u.copy())
    assert phi_quotient(pair, unit_weight, unit_weight, grid5) == 0.0


def test_phi_nonnegative_for_upward_tilt(grid5, quad_weight, rng):
    for _ in range(5):
        u = smooth_dirichlet_field(grid5, rng)
        pair = FieldPair(u=u, v=u.copy())
        assert phi_quotient(pair, quad_weight, quad_weight, grid5) >= 0.0


def test_phi_degenerate_denominator(grid5, quad_weight):
    zero = np.zeros_like(grid5.nodes)
    pair = FieldPair(u=zero, v=zero.copy())
    with pytest.raises(DegenerateDenominator):
        phi_quotient(pair, quad_weight, quad_weight, grid5)


# --- omega ------------------------------------------------------------------


def test_omega_minus_inf_flag(grid5, unit_weight):
    # 1 - r^2 sin(pi r), tabulated: its tilt is negative around r = 1/2
    r_tab = np.linspace(0.0, 1.0, 201)
    w = WeightProfile(1.0, 2.0, 0.0, (r_tab, -np.sin(np.pi * r_tab)))
    est = omega_estimate(w, unit_weight, grid5)
    assert est.unbounded_below
    assert est.value == -math.inf
    assert est.family_values.size == 0
    # the flag is a sign test; behind it, bumps shrinking onto the most
    # negative node of the combined tilt drive phi to -inf
    combined = tilde_weight(w, grid5) + tilde_weight(unit_weight, grid5)
    z0 = grid5.nodes[1 + int(np.argmin(combined[1:-1]))]
    values = []
    for j in range(7):                   # widths 0.25 down to 7 nodes
        t = np.abs(grid5.nodes - z0) / (0.25 / 2 ** j)
        u = dirichlet_field(np.where(t < 1.0, np.cos(0.5 * np.pi * t) ** 2, 0.0),
                            grid5)
        values.append(phi_quotient(FieldPair(u=u, v=u.copy()), w, unit_weight, grid5))
    assert np.all(np.diff(values) < 0.0)
    assert values[-1] < -1e3


def test_omega_no_flag_for_upward_tilt(grid5, quad_weight):
    est = omega_estimate(quad_weight, quad_weight, grid5)
    assert not est.unbounded_below
    assert est.value >= 0.0


def test_omega_supercritical_goes_to_zero(grid5_geo, quartic_weight):
    est = omega_estimate(quartic_weight, quartic_weight, grid5_geo)
    assert not est.unbounded_below
    assert est.value < 1e-3
    assert est.lower_bound == 0.0 and est.upper_bound == 0.0


def test_omega_estimate_builds_the_unit_operator_once(quad_weight, quartic_weight):
    # the eigenvalue behind the (2, 4) upper bound comes from a unit weight,
    # whose operator the grid keeps after the first call
    grid = build_grid(5, 1.0, 300)
    omega_estimate(quad_weight, quartic_weight, grid)
    assert ("operator", WeightProfile(1.0)) in grid._memo
    built = len(grid._memo)
    for _ in range(2):
        omega_estimate(quad_weight, quartic_weight, grid)
        assert len(grid._memo) == built


@pytest.mark.parametrize("l, eigen_solves", [(2.0, 0), (4.0, 1)])
def test_omega_estimate_reads_the_unit_eigenvalue_only_for_an_upper_bound(
        monkeypatch, l, eigen_solves):
    # at k = l = 2 omega_bounds states no upper bound, so nothing reads
    # lambda_1 of the unit weight; at (2, 4) it is read once
    import critvar.nonexistence

    calls = []
    first_eigenpair = critvar.nonexistence.first_eigenpair

    def counted(w, grid):
        calls.append(w)
        return first_eigenpair(w, grid)

    monkeypatch.setattr(critvar.nonexistence, "first_eigenpair", counted)
    est = omega_estimate(WeightProfile(1.0, 2.0, 1.0),
                         WeightProfile(1.0, l, 1.0), build_grid(5, 1.0, 300))
    assert len(calls) == eigen_solves
    assert (not math.isnan(est.upper_bound)) == (eigen_solves == 1)


def test_omega_family_is_phi_of_its_bumps_with_each_tilt_sampled_once(
        monkeypatch, quad_weight, quartic_weight):
    # the family shares one tilt sample per weight and one derivative per
    # bump, and its values are phi_quotient's on the same bumps, bit for bit;
    # the Pohozaev terms read the same tilt samples
    from critvar.nonexistence import _MIN_WIDTH_CELLS, _N_WIDTHS, _central_bump

    grid = build_grid(5, 1.0, 300)
    tilts = []
    radial_tilt = WeightProfile.radial_tilt

    def counted(self, r):
        tilts.append(self)
        return radial_tilt(self, r)

    monkeypatch.setattr(WeightProfile, "radial_tilt", counted)
    est = omega_estimate(quad_weight, quartic_weight, grid)
    u = dirichlet_field(1.0 - grid.nodes ** 2, grid)
    pohozaev_report(FieldPair(u=u, v=u.copy()), 3.0, quad_weight, quartic_weight, grid)
    assert tilts == [quad_weight, quartic_weight]
    assert not tilde_weight(quad_weight, grid).flags.writeable
    widths = np.geomspace(0.9 * grid.radius, grid.nodes[_MIN_WIDTH_CELLS], _N_WIDTHS)
    bumps = [_central_bump(s, grid) for s in widths]
    # on a fresh grid, so that phi_quotient samples the tilts anew
    expected = [phi_quotient(FieldPair(u=v, v=v.copy()), quad_weight,
                             quartic_weight, build_grid(5, 1.0, 300)) for v in bumps]
    assert np.array_equal(est.family_values, expected)


@pytest.mark.parametrize("cells", [16, 19])
def test_omega_estimate_on_too_coarse_a_grid_is_grid_too_coarse(quad_weight, cells):
    # build_grid accepts 16 cells; the bump family's narrowest width is the
    # radius of node 20
    with pytest.raises(GridTooCoarse, match="20 cells"):
        omega_estimate(quad_weight, quad_weight, build_grid(5, 1.0, cells))
    assert math.isfinite(omega_estimate(quad_weight, quad_weight,
                                        build_grid(5, 1.0, 20)).value)


def test_omega_quadratic_respects_tabulated_bounds(grid5):
    a = WeightProfile(1.0, 2.0, 1.0)
    b = WeightProfile(1.0, 4.0, 1.0)
    est = omega_estimate(a, b, grid5)
    assert math.isfinite(est.lower_bound) and math.isfinite(est.upper_bound)
    assert est.lower_bound <= est.value <= est.upper_bound + 1e-8


def test_omega_bounds_tabulated_examples():
    # quadratic/quartic at N=5, unit coefficients, diameter 2
    lower, upper = omega_bounds(5, 2.0, 4.0, 1.0, 1.0, 2.0, lambda: 20.19)
    assert lower == pytest.approx(25.0 / 16.0, rel=1e-12)
    assert upper == pytest.approx(0.5 * 20.19 * 4.0, rel=1e-12)
    # both quadratic at N=4: the at-most-quadratic branch, factor k = l = 2
    lower, upper = omega_bounds(4, 2.0, 2.0, 1.0, 1.0, 2.0, lambda: 14.68)
    assert lower == pytest.approx(2.0, rel=1e-12)
    assert math.isnan(upper)
    # both supercritical: exactly (0, 0)
    assert omega_bounds(5, 3.0, 4.0, 1.0, 1.0, 2.0, lambda: 20.19) == (0.0, 0.0)
    # no regime covers a sub-quadratic exponent beside a super-quadratic one:
    # both bounds are nan, and the eigenvalue is not read
    lower, upper = omega_bounds(5, 1.5, 4.0, 1.0, 1.0, 2.0,
                                lambda: pytest.fail("eigenvalue read"))
    assert math.isnan(lower) and math.isnan(upper)


def test_omega_bounds_past_the_float_range_read_inf():
    # 2.0 ** (1e300 - 2) raised OverflowError, and `critvar all` exited 1:
    # e c diam^(e - 2) is inf there, so the lower bound is N^2/16 quad
    lower, upper = omega_bounds(6, 2.0, 1e300, 0.5, 1e-8, 2.0, lambda: 1.0)
    assert (lower, upper) == (36.0 / 16.0 * 0.5, 0.5 * 0.5 * 1.0 * 4.0)
    # below quadratic on a tiny ball, diam^(k - 2) overflows the same way
    lower, _ = omega_bounds(5, 1.0, 0.5, 1.0, 1.0, 1e-250, lambda: 1.0)
    assert lower == 25.0 / 16.0 * 1e250


# --- Hardy ------------------------------------------------------------------


def test_hardy_closed_form_example(grid5):
    # u = 1 - r^2, N = 5: lhs = 4 sigma / 9, rhs = (25/4) sigma 8/315
    u = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    lhs, rhs = hardy_sides(u, grid5)
    sigma = unit_sphere_area(5)
    assert lhs == pytest.approx(4.0 * sigma / 9.0, rel=1e-5)
    assert rhs == pytest.approx(25.0 / 4.0 * sigma * 8.0 / 315.0, rel=1e-5)
    assert lhs / rhs == pytest.approx(2.8, rel=1e-4)
    assert lhs >= rhs - 1e-9 * max(1.0, lhs, rhs)


def test_hardy_zero_field(grid5):
    zero = np.zeros_like(grid5.nodes)
    assert hardy_sides(zero, grid5) == (0.0, 0.0)
