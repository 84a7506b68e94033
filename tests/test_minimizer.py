"""Descent flow, multipliers, sweeps, and verdict dispatch."""

import math
from dataclasses import replace

import numpy as np
import pytest

from critvar import (FieldPair, FlowParams, WeightProfile, build_grid,
                     concentration_diagnostic, descend, dirichlet_field,
                     discrete_sobolev_constant, el_residual, energy,
                     existence_verdict, lagrange_multipliers, lq_norm,
                     sign_normalize, sweep_minimize)
from critvar import minimizer
from critvar.errors import BadSpectrum, DegeneratePair, NumericFault
from critvar.spectral import TridiagonalOperator
from conftest import smooth_dirichlet_field


def _normalized_pair(grid, rng):
    u = smooth_dirichlet_field(grid, rng)
    v = smooth_dirichlet_field(grid, rng)
    return FieldPair(u=u / lq_norm(u, grid), v=v / lq_norm(v, grid))


def test_multiplier_average_is_energy(grid5, quad_weight, rng):
    for _ in range(20):
        pair = _normalized_pair(grid5, rng)
        l1, l2 = lagrange_multipliers(pair, quad_weight, quad_weight, 3.0, grid5)
        rep = energy(pair, quad_weight, quad_weight, 3.0, grid5)
        assert (l1 + l2) / 2.0 == pytest.approx(rep.value, rel=1e-12)


def test_el_residual_zero_pair(grid5, unit_weight):
    zero = np.zeros_like(grid5.nodes)
    pair = FieldPair(u=zero, v=zero.copy())
    assert el_residual(pair, 0.0, 0.0, unit_weight, unit_weight, 1.0, grid5) == 0.0


def test_sign_normalize(grid5, rng):
    u = smooth_dirichlet_field(grid5, rng)
    pair = sign_normalize(FieldPair(u=u, v=-u))
    assert np.min(pair.u * pair.v) >= 0.0


def test_descend_converges_and_satisfies_system(grid5, quad_weight,
                                                quartic_weight, quick_flow):
    # b = a advances one row; b != a advances both, each coupled to the other
    for b in (quartic_weight, quad_weight):
        res = descend(quartic_weight, b, 10.0, grid5, quick_flow)
        assert res.status == "converged"
        assert res.el_residual <= 10.0 * quick_flow.grad_tol
        assert lq_norm(res.pair.u, grid5) == pytest.approx(1.0, rel=1e-12)
        assert lq_norm(res.pair.v, grid5) == pytest.approx(1.0, rel=1e-12)
        # value consistent with direct evaluation
        rep = energy(res.pair, quartic_weight, b, 10.0, grid5)
        assert res.q_lambda == pytest.approx(rep.value, rel=1e-12)


def test_symmetric_data_stays_symmetric(grid5, quad_weight, quick_flow):
    res = descend(quad_weight, quad_weight, 5.0, grid5, quick_flow)
    assert np.max(np.abs(res.pair.u - res.pair.v)) < 1e-12


def test_best_trace_nonincreasing(grid5, quad_weight, quick_flow):
    res = descend(quad_weight, quad_weight, 8.0, grid5, quick_flow)
    assert np.all(np.diff(res.best_trace) <= 0.0)


def _result_fields(res):
    return (res.pair.u, res.pair.v, res.best_trace, res.q_lambda,
            res.multiplier_u, res.multiplier_v, res.el_residual,
            res.concentration, res.status, res.iterations)


@pytest.mark.parametrize("grid_name, max_iters",
                         [("grid5", 1500), ("grid5_geo", 300)])
@pytest.mark.parametrize("lam", [0.0, 9.0])
def test_one_row_flow_is_bitwise_two_row_flow(request, monkeypatch, grid_name,
                                              max_iters, lam):
    # two equal weights parsed apart, as the harness builds them
    grid = request.getfixturevalue(grid_name)
    a = WeightProfile.pure_power(1.0, 2.0, 1.0)
    b = WeightProfile.pure_power(1.0, 2.0, 1.0)
    params = FlowParams(max_iters=max_iters, grad_tol=1e-6, stall_window=1500)
    # the one- and two-row Newton solves differ in their last digits; the
    # polished results are compared in test_newton_polish_agrees_with_flow
    monkeypatch.setattr(minimizer, "_NEWTON_SWITCH", 0.0)
    one_row = descend(a, b, lam, grid, params)
    monkeypatch.setattr(minimizer, "_one_row", lambda *args: False)
    two_rows = descend(a, b, lam, grid, params)
    for x, y in zip(_result_fields(one_row), _result_fields(two_rows)):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y
    assert one_row.pair.u is not one_row.pair.v


@pytest.mark.parametrize("b_coeff, init, rows", [
    (1.0, "bubble", 1),
    (1.0, "random", 2),
    (2.0, "bubble", 2),
])
def test_solves_per_iteration(grid5, monkeypatch, b_coeff, init, rows):
    calls = []
    solve = TridiagonalOperator._solve

    def counted(self, rhs):
        calls.append(1)
        return solve(self, rhs)

    monkeypatch.setattr(TridiagonalOperator, "_solve", counted)
    a = WeightProfile.pure_power(1.0, 2.0, 1.0)
    b = WeightProfile.pure_power(1.0, 2.0, b_coeff)
    res = descend(a, b, 9.0, grid5,
                  FlowParams(max_iters=20, grad_tol=1e-12, init=init))
    assert res.iterations == 20
    assert len(calls) == rows * res.iterations


def _polish_forbidden(*args):
    raise AssertionError("a concentrating flow must never reach the polish")


def test_concentrating_sweep_flow_never_polishes(monkeypatch, grid5, quad_weight,
                                                 quick_flow):
    # the lam = 2 flow of test_sweep_monotone_and_pooled
    monkeypatch.setattr(minimizer, "_newton_polish", _polish_forbidden)
    res = descend(quad_weight, quad_weight, 2.0, grid5, quick_flow)
    assert res.status == "concentrating"


@pytest.mark.parametrize("b_name", ["quartic_weight", "quad_weight"])
def test_newton_polish_agrees_with_flow(request, monkeypatch, grid5,
                                        quartic_weight, b_name):
    # b = a polishes one row, b != a two
    b = request.getfixturevalue(b_name)
    params = FlowParams(max_iters=8000, grad_tol=1e-9, stall_window=1500)
    polished = descend(quartic_weight, b, 10.0, grid5, params)
    monkeypatch.setattr(minimizer, "_NEWTON_SWITCH", 0.0)
    flow = descend(quartic_weight, b, 10.0, grid5, params)
    for res in (polished, flow):
        assert res.status == "converged"
        assert res.el_residual <= params.grad_tol
    assert polished.iterations < flow.iterations
    for name in ("q_lambda", "multiplier_u", "multiplier_v"):
        assert getattr(polished, name) == pytest.approx(getattr(flow, name),
                                                        rel=1e-10, abs=0.0)


def _raise_lin_alg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("singular")


def _nan_solution(l_and_u, ab, b, **kwargs):
    return np.full(np.shape(b), math.nan)


@pytest.mark.parametrize("solve", [_raise_lin_alg_error, _nan_solution])
@pytest.mark.parametrize("b_name", ["quartic_weight", "quad_weight"])
def test_failed_polish_leaves_the_flow_bitwise(request, monkeypatch, grid5,
                                               quartic_weight, b_name, solve):
    b = request.getfixturevalue(b_name)
    params = FlowParams(max_iters=8000, grad_tol=1e-9, stall_window=1500)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(minimizer, "solve_banded", counted)
    failed = descend(quartic_weight, b, 10.0, grid5, params)
    assert calls == [1]                 # one attempt, abandoned at its first solve
    monkeypatch.setattr(minimizer, "_NEWTON_SWITCH", 0.0)
    flow = descend(quartic_weight, b, 10.0, grid5, params)
    for x, y in zip(_result_fields(failed), _result_fields(flow)):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


def test_non_finite_gradient_is_numeric_fault(monkeypatch, grid5, quad_weight):
    def nan_apply(self, x, out, tmp):
        out.fill(math.nan)
        return out

    monkeypatch.setattr(TridiagonalOperator, "_apply", nan_apply)
    with pytest.raises(NumericFault):
        descend(quad_weight, quad_weight, 5.0, grid5, FlowParams(max_iters=5))


@pytest.mark.parametrize("grid_name, b_name, lam, max_iters", [
    ("grid5_geo", "quad_weight", 0.0, 20000),     # one row, concentrating
    ("grid5", "quartic_weight", -3.0, 3000),      # two rows, a != b
])
def test_reported_pair_is_the_best_seen(request, monkeypatch, quad_weight,
                                        grid_name, b_name, lam, max_iters):
    # lam <= 0 skips sign normalization, so the reported energy is that of
    # the pair the flow kept as its best, not of a reused row buffer
    monkeypatch.setattr(minimizer, "_newton_polish", _polish_forbidden)
    grid = request.getfixturevalue(grid_name)
    b = request.getfixturevalue(b_name)
    params = FlowParams(max_iters=max_iters, grad_tol=1e-12, stall_window=20000)
    res = descend(quad_weight, b, lam, grid, params)
    assert res.status == "concentrating"
    assert res.q_lambda == pytest.approx(res.best_trace[-1], rel=1e-12)


@pytest.mark.parametrize("b_name", ["quad_weight", "quartic_weight"])
def test_stalled_flow_reports_its_last_improvement(request, grid5, quad_weight,
                                                   b_name):
    # an unreachable tolerance ends the flow on its stall window, after
    # accepted steps that improve nothing; the pair reported must be the
    # one held when the best energy was last lowered, bit for bit
    b = request.getfixturevalue(b_name)
    params = FlowParams(max_iters=6000, grad_tol=1e-14, stall_window=30)
    res = descend(quad_weight, b, 10.0, grid5, params)
    last = int(np.flatnonzero(np.diff(res.best_trace) < 0)[-1]) + 1
    assert res.status == "stalled" and res.iterations > last + 1
    cut = descend(quad_weight, b, 10.0, grid5, replace(params, max_iters=last))
    assert np.array_equal(res.pair.u, cut.pair.u)
    assert np.array_equal(res.pair.v, cut.pair.v)
    assert res.q_lambda == cut.q_lambda


def test_calls_share_no_state(grid5, grid4, quad_weight, quartic_weight):
    params = FlowParams(max_iters=400, grad_tol=1e-9)
    first = descend(quad_weight, quartic_weight, 9.0, grid5, params)
    descend(quartic_weight, quad_weight, 3.0, grid4, params)
    again = descend(quad_weight, quartic_weight, 9.0, grid5, params)
    for x, y in zip(_result_fields(first), _result_fields(again)):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


@pytest.mark.parametrize("node, value", [(100, math.nan), (0, math.inf)])
def test_non_finite_start_is_degenerate(grid5, quad_weight, node, value):
    u = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    u[node] = value
    with pytest.raises(DegeneratePair), np.errstate(invalid="ignore"):
        descend(quad_weight, quad_weight, 5.0, grid5,
                init_pair=FieldPair(u=u, v=u.copy()))


def test_random_init_beats_nothing(grid5, quartic_weight):
    params = FlowParams(max_iters=4000, grad_tol=1e-5, init="random", seed=7)
    res = descend(quartic_weight, quartic_weight, 10.0, grid5, params)
    assert res.status == "converged"


def test_eigenfunction_init(grid5, quad_weight):
    # coupling above the quadratic-regime threshold, where a minimizer exists
    params = FlowParams(max_iters=4000, grad_tol=1e-5, init="eigenfunction")
    res = descend(quad_weight, quad_weight, 8.0, grid5, params)
    assert res.status in ("converged", "stalled")
    assert res.q_lambda < 20.0


def test_custom_init(grid5, quad_weight):
    u = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    params = FlowParams(max_iters=2000, grad_tol=1e-5)
    res = descend(quad_weight, quad_weight, 5.0, grid5, params,
                  init_pair=FieldPair(u=u, v=u.copy()))
    assert res.iterations > 0


def test_discrete_sobolev_constant_close_to_continuum(grid5_fine):
    from critvar import bubble_constants

    s_grid = discrete_sobolev_constant(
        grid5_fine, FlowParams(max_iters=20000, grad_tol=1e-7))
    # the discrete minimum sits slightly below the continuum constant
    assert s_grid == pytest.approx(bubble_constants(5).s, rel=1e-2)
    assert s_grid < bubble_constants(5).s


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_non_finite_coupling_rejected(grid5, quad_weight, lam):
    with pytest.raises(NumericFault):
        descend(quad_weight, quad_weight, lam, grid5, FlowParams(max_iters=5))


def test_sweep_monotone_and_pooled(grid5, quad_weight, quick_flow):
    lams = [2.0, 5.0, 8.0, 11.0, 14.0]
    rows = sweep_minimize(lams, quad_weight, quad_weight, grid5, quick_flow)
    qs = [r.result.q_lambda for r in rows]
    assert all(b - a <= 1e-8 for a, b in zip(qs, qs[1:]))
    assert [r.lam for r in rows] == lams
    # lam = 2 concentrates; the converged lam = 5 pair wins that row, which
    # then describes that pair, not the flow it displaced
    pooled = rows[0].result
    assert np.array_equal(pooled.pair.u, rows[1].result.pair.u)
    assert pooled.status == "pooled"
    assert pooled.concentration == concentration_diagnostic(
        pooled.pair.u, 0.1 * grid5.radius, grid5)
    assert pooled.concentration == rows[1].result.concentration


def test_sweep_row_never_won_by_its_own_pair():
    # existence-sweep geometry, where re-evaluating a flow's own pair lands
    # a few ulps below the flow's energy; such a row must report the flow
    grid = build_grid(5, 1.0, 1500, grading="geometric", ratio=1.004)
    w = WeightProfile.pure_power(1.0, 2.0, 1.0)
    lams = [9.082466, 11.1759, 13.217633, 15.421775, 17.602526, 19.782147,
            21.931874, 23.945944]
    params = FlowParams(max_iters=8000, grad_tol=1e-5, stall_window=1500)
    rows = sweep_minimize(lams, w, w, grid, params)
    warm = None
    for row in rows:                # no pair from another coupling wins here
        flow = descend(w, w, row.lam, grid, params, init_pair=warm)
        warm = flow.pair
        assert np.array_equal(row.result.pair.u, flow.pair.u)
        assert row.result.q_lambda == flow.q_lambda
        assert row.result.status == flow.status


# --- verdict dispatch -------------------------------------------------------


def test_verdict_supercritical_powers():
    v = existence_verdict(5, 4.0, 4.0, 1.0, 1.0, lam=5.0, lam_tilde=20.0)
    assert v.verdict == "achieved_by_theorem"
    assert v.case_id == "existence.supercritical-powers"


def test_verdict_quadratic_both_threshold():
    below = existence_verdict(5, 2.0, 2.0, 1.0, 1.0, lam=6.5, lam_tilde=30.0)
    above = existence_verdict(5, 2.0, 2.0, 1.0, 1.0, lam=6.6, lam_tilde=30.0)
    assert below.verdict == "outside_theory"
    assert above.verdict == "achieved_by_theorem"
    assert above.case_id == "existence.quadratic-both"
    assert above.thresholds_used["gap_threshold"] == pytest.approx(105.0 / 16.0)


def test_verdict_mixed_quadratic():
    v = existence_verdict(5, 2.0, 4.0, 1.0, 1.0, lam=4.0, lam_tilde=30.0)
    assert v.verdict == "achieved_by_theorem"
    assert v.case_id == "existence.quadratic-first"
    v2 = existence_verdict(5, 4.0, 2.0, 1.0, 1.0, lam=4.0, lam_tilde=30.0)
    assert v2.case_id == "existence.quadratic-second"


def test_verdict_gap_only_above_lambda_tilde():
    v = existence_verdict(5, 4.0, 4.0, 1.0, 1.0, lam=25.0, lam_tilde=20.0)
    assert v.verdict == "energy_gap_only"


def test_verdict_dim4_quadratic_is_gap_only():
    v = existence_verdict(4, 2.0, 2.0, 1.0, 1.0, lam=5.0, lam_tilde=30.0)
    assert v.verdict == "energy_gap_only"
    assert v.case_id == "gap.quadratic-both"


def test_verdict_nonexistence_from_certified_bound():
    v = existence_verdict(5, 2.0, 2.0, 1.0, 1.0, lam=2.0, lam_tilde=30.0,
                          omega_estimate=3.125)
    assert v.verdict == "no_minimizer_by_theorem"


def test_verdict_subquadratic_outside():
    v = existence_verdict(5, 1.5, 4.0, 1.0, 1.0, lam=5.0, lam_tilde=30.0)
    assert v.verdict == "outside_theory"


def test_verdict_bad_spectrum():
    with pytest.raises(BadSpectrum):
        existence_verdict(5, 2.0, 2.0, 1.0, 1.0, lam=1.0, lam_tilde=0.0)
