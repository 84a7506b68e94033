"""Acceptance suite: one test per numbered criterion.

Each test is self-contained up to the shared module fixtures below, which
hold the expensive sweep and refinement computations reused by several
criteria.  Frozen reference values come from closed forms evaluated
independently of the package quadrature.
"""

import math
import time

import numpy as np
import pytest

from critvar import (FieldPair, FlowParams, WeightProfile, assemble_operator,
                     bubble_constants, build_grid, case_of, correction_constant,
                     descend, dirichlet_field, energy_curves,
                     existence_verdict, first_eigenpair, fit_expansion,
                     lambda_tilde, minimizer, omega_bounds, omega_estimate,
                     pohozaev_report, slope_factor, sweep_minimize,
                     unit_sphere_area)
from conftest import (coupling_threshold, eigenfunction_pair_energy, energy,
                      hardy_sides, lq_norm, radial_moment_quadrature,
                      smooth_dirichlet_field)

QUAD = WeightProfile(1.0, 2.0, 1.0)     # gamma0 + r^2
QUARTIC = WeightProfile(1.0, 4.0, 1.0)  # gamma0 + r^4
SWEEP_FLOW = FlowParams(max_iters=8000, grad_tol=1e-5, stall_window=1500)


@pytest.fixture(scope="module")
def sweeps(grid5):
    """Ten-sample coupling sweeps on two distinct weight scenarios."""
    out = {}
    for name, (wa, wb) in {"quadratic-both": (QUAD, QUAD),
                           "quadratic-quartic": (QUAD, QUARTIC)}.items():
        spec = lambda_tilde(wa, wb, grid5)
        lams = [float(f) * spec.value for f in np.linspace(0.08, 0.92, 10)]
        rows = sweep_minimize(lams, wa, wb, grid5, SWEEP_FLOW)
        out[name] = (wa, wb, spec, rows)
    return out


@pytest.fixture(scope="module")
def gap_data(grid5_geo):
    """Pooled-minimum energies at two resolutions, for existence-regime
    points; criterion 06 measures their gap below the concentration level
    gamma0 * S_5 = `bubble_constants(5).s` (gamma0 = 1).

    Graded grids keep the center well resolved, so the two resolutions
    differ by a small grid bias.
    """
    coarse = build_grid(5, 1.0, 1500, grading="geometric", ratio=1.004)
    points = [("supercritical-powers", QUARTIC, QUARTIC, 10.0),
              ("quadratic-both", QUAD, QUAD, 8.0),
              ("quadratic-first", QUAD, QUARTIC, 4.0)]
    rows = []
    for name, wa, wb, lam in points:
        q_coarse = descend(wa, wb, lam, coarse, SWEEP_FLOW).q_lambda
        q_fine = descend(wa, wb, lam, grid5_geo, SWEEP_FLOW).q_lambda
        rows.append((name, lam, q_coarse, q_fine))
    return rows


def test_criterion_01_constant_identities():
    start = time.perf_counter()
    for dim in (5, 6, 7, 8):
        sigma = unit_sphere_area(dim)
        k1_q = (dim - 2) ** 2 * sigma * radial_moment_quadrature(dim + 1, dim)
        k2_q = (sigma * radial_moment_quadrature(dim - 1, dim)) ** ((dim - 2) / dim)
        c = bubble_constants(dim)
        assert k1_q / k2_q == pytest.approx(c.s, rel=1e-10)
        ratio = correction_constant(dim, 1.0, 2.0) / c.k3
        closed = dim * (dim - 2) * (dim + 2) / (4.0 * (dim - 1))
        assert ratio == pytest.approx(closed, rel=1e-8)
    c5 = bubble_constants(5)
    assert correction_constant(5, 1.0, 2.0) / c5.k3 == pytest.approx(
        105.0 / 16.0, rel=1e-8)
    assert time.perf_counter() - start < 5.0


def test_criterion_02_threshold_factors():
    assert slope_factor(5) == 105.0 / 32.0
    assert slope_factor(4) == 2.0
    for dim in (4, 5, 6, 7, 8):
        m = dim * (dim - 2) * (dim + 2) / (8.0 * (dim - 1))
        assert slope_factor(dim) == pytest.approx(m, rel=1e-15)
    # the both-quadratic threshold m_N (A2 + B2) is what the verdict uses
    a2, b2 = 1.5, 0.5
    case = case_of(5, WeightProfile(1.0, 2.0, a2), WeightProfile(1.0, 2.0, b2))
    assert case.threshold_both == pytest.approx(105.0 / 32.0 * (a2 + b2), rel=1e-15)
    v = existence_verdict(case, lam=case.threshold_both + 0.1, lam_tilde=1e6)
    assert v.verdict == "achieved_by_theorem"
    assert case.gap == pytest.approx(case.threshold_both)
    assert existence_verdict(case, lam=case.threshold_both - 0.1,
                             lam_tilde=1e6).verdict != "achieved_by_theorem"


def test_criterion_03_eigenvalue_benchmark(unit_weight):
    start = time.perf_counter()
    exact = 4.493409457909064 ** 2    # square of the first half-odd Bessel zero
    errs = []
    for n in (250, 500, 1000, 2000):
        grid = build_grid(5, 1.0, n)
        errs.append(abs(first_eigenpair(unit_weight, grid).lambda1 - exact))
    assert errs[-1] < 0.005 * exact
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(o >= 1.8 for o in orders)
    assert time.perf_counter() - start < 10.0


def test_criterion_04_nonnegative_below_spectrum(sweeps, grid5):
    s = bubble_constants(5).s
    for wa, wb, spec, rows in sweeps.values():
        assert len(rows) == 10
        for row in rows:
            assert 0.0 < row.lam < spec.value
            assert row.result.q_lambda >= -1e-6 * s       # gamma0 = 1
        thr = coupling_threshold(spec, grid5)
        val = eigenfunction_pair_energy(wa, wb, thr, grid5, spec)
        assert val <= 1e-8


def test_criterion_05_expansion_sign_law(grid5_geo):
    c = bubble_constants(5)
    ladder = [1e-2 / 2 ** j for j in range(9)]
    coeffs = {}
    for lam in (4.0, 8.0, 10.0):
        start = time.perf_counter()
        curve = energy_curves([lam], QUAD, QUAD, ladder, grid5_geo, 0.9)[0]
        fit = fit_expansion(ladder, curve, "eps")
        predicted = -(lam - 105.0 / 16.0) * c.k3 / c.k2
        assert fit.leading_coeff == pytest.approx(predicted, rel=0.05)
        coeffs[lam] = fit.leading_coeff
        assert time.perf_counter() - start < 60.0
    assert coeffs[4.0] > 0.0 > coeffs[8.0]     # sign change across 105/16
    assert coeffs[10.0] < coeffs[8.0]


def test_criterion_06_energy_gap_beats_grid_bias(gap_data):
    s = bubble_constants(5).s
    for name, lam, q_coarse, q_fine in gap_data:
        bias = abs(q_coarse - q_fine)
        gap = s - q_fine                       # gamma0 = 1
        assert gap > 2.0 * bias, (name, lam, gap, bias)


def test_criterion_07_minimizer_sign(sweeps):
    converged = 0
    for _, _, _, rows in sweeps.values():
        for row in rows:
            if row.result.status != "converged":
                continue
            converged += 1
            pair = row.result.pair
            assert float(np.min(pair.u * pair.v)) >= -1e-8
    assert converged >= 10


def test_criterion_08_multiplier_identity(grid5, quad_weight, quartic_weight, rng):
    # the multipliers the flow reports, from its kernel
    lam = 3.0
    kern = minimizer._kernel((assemble_operator(quad_weight, grid5),
                              assemble_operator(quartic_weight, grid5)), lam, grid5)
    for _ in range(100):
        u = smooth_dirichlet_field(grid5, rng)
        v = smooth_dirichlet_field(grid5, rng)
        pair = FieldPair(u=u / lq_norm(u, grid5), v=v / lq_norm(v, grid5))
        (ga, gb, p), *_ = kern.report([pair.u.copy(), pair.v.copy()])
        l1, l2 = ga - lam * p, gb - lam * p
        rep = energy(pair, quad_weight, quartic_weight, lam, grid5)
        assert (l1 + l2) / 2.0 == pytest.approx(rep.value, rel=1e-12)


def test_criterion_09_dilation_identity(quad_weight, quartic_weight):
    # manufactured pair u = v = 1 - r^2 with weight 1 + r^2: every term of
    # the identity has a closed form, so the discrete defect is pure
    # discretization error and must vanish at second order
    lam = 3.0
    sigma = unit_sphere_area(5)
    coupling = 2.0 * lam * sigma * (1.0 / 5.0 - 2.0 / 7.0 + 1.0 / 9.0)
    exact = coupling - 2.0 * (4.0 * sigma / 9.0) - 2.0 * (4.0 * sigma)
    errs = []
    for n in (500, 1000, 2000):
        grid = build_grid(5, 1.0, n)
        u = dirichlet_field(1.0 - grid.nodes ** 2, grid)
        rep = pohozaev_report(FieldPair(u=u, v=u.copy()), lam,
                              quad_weight, quad_weight, grid)
        errs.append(abs(rep.residual - exact))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(o >= 1.8 for o in orders)

    # converged minimizer: defect at the quadrature floor, far below the
    # defect of a slightly wrong pair
    grid = build_grid(5, 1.0, 4000)
    tol = 2e-6
    res = descend(quartic_weight, quartic_weight, 10.0, grid,
                  FlowParams(max_iters=30000, grad_tol=tol, stall_window=4000))
    assert res.status == "converged"
    rep = pohozaev_report(res.pair, 10.0, quartic_weight, quartic_weight, grid)
    assert abs(rep.residual) <= 10.0 * tol

    bump = 1.0 + 0.01 * np.sin(math.pi * grid.nodes)
    u2 = res.pair.u * bump
    v2 = res.pair.v * bump
    pert = FieldPair(u=u2 / lq_norm(u2, grid), v=v2 / lq_norm(v2, grid))
    rep2 = pohozaev_report(pert, 10.0, quartic_weight, quartic_weight, grid)
    assert abs(rep2.residual) >= 100.0 * abs(rep.residual)


def test_criterion_10_omega_indicator(grid5, grid5_geo, unit_weight):
    # (1) the unbounded-below flag fires exactly on a somewhere-negative tilt
    dipped = WeightProfile(1.0, 2.0, 0.0, ((0.0, 1.0), (0.0, -0.5)))  # tilt -1.5 r^3
    est = omega_estimate(dipped, unit_weight, grid5)
    assert est.unbounded_below and est.value == -math.inf
    for wa, wb in ((QUAD, QUAD), (QUAD, QUARTIC), (unit_weight, QUARTIC)):
        assert not omega_estimate(wa, wb, grid5).unbounded_below
    # (2) strictly super-quadratic powers: the estimate collapses to zero
    est4 = omega_estimate(QUARTIC, QUARTIC, grid5_geo)
    assert est4.value < 1e-3
    assert est4.lower_bound == 0.0 and est4.upper_bound == 0.0
    # (3) quadratic regimes respect the closed-form bracket
    est2 = omega_estimate(QUAD, QUARTIC, grid5)
    lo, hi = omega_bounds(5, 2.0, 4.0, 1.0, 1.0, 2.0,
                          lambda: first_eigenpair(unit_weight, grid5).lambda1)
    assert est2.lower_bound == pytest.approx(lo, rel=1e-12)
    assert est2.upper_bound == pytest.approx(hi, rel=1e-12)
    assert lo <= est2.value <= hi + 1e-8
    assert lo == pytest.approx(25.0 / 16.0, rel=1e-12)


def test_criterion_11_hardy_property(grid5, grid4, rng):
    for grid in (grid4, grid5):
        for _ in range(100):
            u = smooth_dirichlet_field(grid, rng)
            lhs, rhs = hardy_sides(u, grid)
            assert lhs >= rhs - 1e-9 * max(1.0, lhs, rhs)
            assert lhs >= rhs * (1.0 - 1e-9)


def test_criterion_12_concentration_at_zero_coupling(grid5_geo):
    params = FlowParams(max_iters=20000, grad_tol=1e-12, stall_window=20000)
    res = descend(QUAD, QUAD, 0.0, grid5_geo, params)
    assert res.status == "concentrating"
    assert res.concentration > 0.99
    s = bubble_constants(5).s
    assert abs(res.q_lambda - s) / s < 0.03             # gamma0 = 1
    # reported, not asserted: the limiting value itself
    print(f"concentration energy {res.q_lambda:.6f} vs S_5 {s:.6f}")


def test_criterion_13_sweep_monotonicity(sweeps):
    for _, _, _, rows in sweeps.values():
        qs = [row.result.q_lambda for row in rows]
        assert all(later - earlier <= 1e-8
                   for earlier, later in zip(qs, qs[1:]))
