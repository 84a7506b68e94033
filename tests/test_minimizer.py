"""Descent flow, multipliers, sweeps, and verdict dispatch."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from critvar import (FieldPair, FlowParams, WeightProfile, build_grid,
                     concentration_diagnostic, descend, dirichlet_field,
                     discrete_sobolev_constant, el_residual, energy,
                     existence_verdict, lagrange_multipliers, lambda_tilde,
                     lq_norm, sign_normalize, sweep_minimize)
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


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 9.0])
def test_first_energy_is_the_public_energy_of_the_start(grid5, quad_weight,
                                                        quartic_weight, rng,
                                                        rows, lam):
    # the flow's fused normalization and conductance energy agree with the
    # public energy of the (scale-invariant) start
    u = smooth_dirichlet_field(grid5, rng)
    b, v = ((quad_weight, u.copy()) if rows == 1
            else (quartic_weight, smooth_dirichlet_field(grid5, rng)))
    start = FieldPair(u=u, v=v)
    res = descend(quad_weight, b, lam, grid5, FlowParams(max_iters=1),
                  init_pair=start)
    assert res.best_trace[0] == pytest.approx(
        energy(start, quad_weight, b, lam, grid5).value, rel=1e-13, abs=0.0)


# at the default sup factor the sup test is the last to pass (at lam = 0 the
# mass test first passes at 150, and the detector fires at 160 after a
# dilation move, at 720 without one); at 2 the mass test is
@pytest.mark.parametrize("sup_factor", [minimizer._CONC_SUP_FACTOR, 2.0])
@pytest.mark.parametrize("lam", [0.0, 2.0])
def test_detector_fires_at_the_first_checkpoint_the_public_tests_pass(
        monkeypatch, grid5, quad_weight, lam, sup_factor):
    # the flow reads its mass inside delta from its power rows; it must stop
    # where concentration_diagnostic and the sup test first agree, and not
    # at the checkpoint before
    monkeypatch.setattr(minimizer, "_CONC_SUP_FACTOR", sup_factor)
    params = FlowParams(max_iters=3000, grad_tol=1e-12, stall_window=3000)
    start = minimizer._initial_pair(quad_weight, quad_weight, grid5, params).u
    sup0 = np.max(np.abs(start)) / lq_norm(start, grid5)

    def fires(res):
        u = res.pair.u
        # an improving last step makes the reported pair the flow's last row
        assert res.best_trace[-1] < res.best_trace[-2]
        return (concentration_diagnostic(u, 0.1 * grid5.radius, grid5)
                > minimizer._CONC_MASS
                and np.max(np.abs(u)) > minimizer._CONC_SUP_FACTOR * sup0)

    res = descend(quad_weight, quad_weight, lam, grid5, params)
    assert res.status == "concentrating" and res.iterations % 10 == 0
    assert fires(res)
    cut = descend(quad_weight, quad_weight, lam, grid5,
                  replace(params, max_iters=res.iterations - 10))
    assert cut.status != "concentrating"
    assert not fires(cut)


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


def test_early_polish_agrees_with_flow_at_the_two_row_gap_point(monkeypatch):
    # the quadratic-first point of the energy-gap criterion, whose flow
    # reaches the switch far from grad_tol; the polish must land on the
    # flow's minimizer, not on a sign-changing critical point
    grid = build_grid(5, 1.0, 1500, grading="geometric", ratio=1.004)
    a = WeightProfile.pure_power(1.0, 2.0, 1.0)
    b = WeightProfile.pure_power(1.0, 4.0, 1.0)
    params = FlowParams(max_iters=8000, grad_tol=1e-5, stall_window=1500)
    accepted = []
    polish = minimizer._newton_polish

    def kept(*args):
        out = polish(*args)
        if out is not None:
            accepted.append([row.copy() for row in out[0]])
        return out

    monkeypatch.setattr(minimizer, "_newton_polish", kept)
    polished = descend(a, b, 4.0, grid, params)
    monkeypatch.setattr(minimizer, "_NEWTON_SWITCH", 0.0)
    flow = descend(a, b, 4.0, grid, params)
    assert polished.status == flow.status == "converged"
    assert polished.q_lambda == pytest.approx(flow.q_lambda, rel=1e-10, abs=0.0)
    # the split of the energy between the multipliers moves to first order
    # with the residual: the flow stops at grad_tol, 3e-8 relative away
    for name in ("multiplier_u", "multiplier_v"):
        assert getattr(polished, name) == pytest.approx(getattr(flow, name),
                                                        rel=1e-7, abs=0.0)
    assert 3 * polished.iterations < flow.iterations
    [rows] = accepted
    assert len(rows) == 2 and all(np.all(row[:-1] > 0.0) for row in rows)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from([2.0, 3.0, 4.0]), l=st.sampled_from([2.0, 3.0, 4.0]),
       frac=st.floats(0.15, 0.9),
       init=st.sampled_from(["bubble", "eigenfunction", "random"]))
def test_polish_agrees_with_flow_inside_the_existence_interval(k, l, frac, init):
    # a coupling between the gap threshold and lambda_tilde, on a coarse grid
    grid = build_grid(5, 1.0, 400)
    a = WeightProfile.pure_power(1.0, k, 1.0)
    b = WeightProfile.pure_power(1.0, l, 1.0)
    gap, _ = minimizer._gap_threshold(5, k, l, 1.0, 1.0)
    lam = gap + frac * (lambda_tilde(a, b, grid).value - gap)
    params = FlowParams(max_iters=8000, grad_tol=1e-7, stall_window=1500,
                        init=init, seed=3)
    polished = descend(a, b, lam, grid, params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimizer, "_NEWTON_SWITCH", 0.0)
        flow = descend(a, b, lam, grid, params)
    assert polished.status == flow.status
    if flow.status == "converged":
        assert polished.q_lambda == pytest.approx(flow.q_lambda, rel=1e-10, abs=0.0)
        for name in ("multiplier_u", "multiplier_v"):
            assert getattr(polished, name) == pytest.approx(
                getattr(flow, name), rel=1e-7, abs=0.0)


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
    solves = []                         # solve_banded calls, one entry per attempt
    polish = minimizer._newton_polish

    def attempt(*args):
        solves.append(0)
        return polish(*args)

    def counted(*args, **kwargs):
        solves[-1] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(minimizer, "_newton_polish", attempt)
    monkeypatch.setattr(minimizer, "solve_banded", counted)
    failed = descend(quartic_weight, b, 10.0, grid5, params)
    # a failed attempt at residual res re-arms the polish at res / _NEWTON_REARM,
    # so the attempts are at least a decade apart between the switch and grad_tol
    most = math.ceil(math.log(minimizer._NEWTON_SWITCH / params.grad_tol,
                              minimizer._NEWTON_REARM)) + 1
    assert 1 < len(solves) <= most
    assert solves == [1] * len(solves)  # each abandoned at its first solve
    monkeypatch.setattr(minimizer, "_NEWTON_SWITCH", 0.0)
    flow = descend(quartic_weight, b, 10.0, grid5, params)
    for x, y in zip(_result_fields(failed), _result_fields(flow)):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


@pytest.mark.parametrize("residuals, solves, accepted", [
    ([0.3, 0.7, 0.02, 2e-4, 3e-7], 4, True),    # one overshoot, then quadratic
    ([0.3, 0.7, 0.02, 0.03], 3, False),         # the third step raises it
    ([0.3, 0.7, 0.7], 2, False),                # the second step does not lower it
    ([0.3, 0.2, 0.1, 0.05, 0.02, 0.01], 5, False),   # _NEWTON_STEPS reached
])
def test_polish_steps_only_while_the_residual_falls(monkeypatch, grid5, quad_weight,
                                                    residuals, solves, accepted):
    # a scripted residual per step; the Newton steps themselves are real
    assert minimizer._NEWTON_STEPS == 5
    script = iter(residuals)
    solved = []

    def counted(*args, **kwargs):
        solved.append(1)
        return solve_banded(*args, **kwargs)

    def gradient(y, hy, fy, g, p, d):
        for dk in d:
            dk.fill(0.0)
        return next(script)

    monkeypatch.setattr(minimizer, "solve_banded", counted)
    x = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    ops = (minimizer.assemble_operator(quad_weight, grid5),)
    out = minimizer._newton_polish(
        [x], [x.copy()], ops, 9.0, grid5, lambda t, h: t, gradient,
        lambda y, fy: (1.0, [1.0], 0.0), 1e-6, 2.0)
    assert len(solved) == solves
    assert (out is not None) == accepted


@pytest.mark.parametrize("modes, accepted", [(1, True), (3, False)])
def test_polish_rejects_rows_that_change_sign(grid5, quad_weight, modes,
                                              accepted):
    # rows already at grad_tol: cos((2j - 1) pi r / 2) changes sign for j > 1
    x = dirichlet_field(np.cos((2 * modes - 1) * np.pi * grid5.nodes / 2.0), grid5)
    ops = (minimizer.assemble_operator(quad_weight, grid5),)
    out = minimizer._newton_polish(
        [x], [x.copy()], ops, 9.0, grid5, lambda t, h: t,
        lambda *args: 1e-7, lambda y, fy: (1.0, [1.0], 0.0), 1e-6, 2.0)
    assert (out is not None) == accepted


def test_non_finite_gradient_is_numeric_fault(monkeypatch, grid5, quad_weight):
    def nan_flux_difference(f, out):
        out.fill(math.nan)
        return out

    monkeypatch.setattr(TridiagonalOperator, "_flux_difference",
                        staticmethod(nan_flux_difference))
    with pytest.raises(NumericFault):
        descend(quad_weight, quad_weight, 5.0, grid5, FlowParams(max_iters=5))


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_normalize_power_row_is_the_power(dim, rng):
    # N = 5 takes |t|^(4/3) as cbrt(t) t, every other N the power pass
    grid = build_grid(dim, 1.0, 800)
    t = dirichlet_field(rng.standard_normal(grid.nodes.size), grid)
    h = np.empty_like(t)
    minimizer._normalizer(grid)(t, h)
    assert lq_norm(t, grid) == pytest.approx(1.0, rel=1e-14)
    # in extended precision, with the exact exponent q - 2 = 4 / (N - 2)
    tl = t.astype(np.longdouble)
    ref = grid.masses * np.abs(tl) ** (np.longdouble(4) / (dim - 2)) * tl
    assert np.all(np.abs(h - ref) <= 4.0 * np.spacing(np.abs(ref).astype(float)))


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
    for row, new_lam in zip(rows, lams[1:] + [None]):
        # the replay starts each flow where the sweep does; no pair from
        # another coupling wins here
        flow = descend(w, w, row.lam, grid, params, init_pair=warm)
        if new_lam is not None:
            warm = minimizer._next_start(flow, w, w, row.lam, new_lam, grid)
        assert np.array_equal(row.result.pair.u, flow.pair.u)
        assert row.result.q_lambda == flow.q_lambda
        assert row.result.status == flow.status


# --- continuation along the sweep -------------------------------------------

# the existence-sweep benchmark workload at seed 11
SWEEP_LAMS = [9.0446, 11.238094, 13.29651, 15.415663, 17.504842, 19.800375,
              21.7696, 23.922903]
SWEEP_FLOW = FlowParams(max_iters=8000, grad_tol=1e-5, stall_window=1500)


@pytest.fixture(scope="module")
def sweep_grid():
    return build_grid(5, 1.0, 1500, grading="geometric", ratio=1.004)


def _recorded_sweep(monkeypatch, lams, a, b, grid, params):
    """sweep_minimize's rows and, in order, each flow's (coupling, start, result)."""
    flows = []
    flow = minimizer.descend

    def recorded(a, b, lam, grid, params, init_pair=None):
        res = flow(a, b, lam, grid, params, init_pair=init_pair)
        flows.append((lam, init_pair, res))
        return res

    monkeypatch.setattr(minimizer, "descend", recorded)
    return sweep_minimize(lams, a, b, grid, params), flows


def _recorded_tangents(monkeypatch):
    """(coupling, rows) of every tangent the sweep computes, in order."""
    calls = []
    tangent = minimizer._tangent

    def recorded(flow, a, b, lam, grid):
        out = tangent(flow, a, b, lam, grid)
        calls.append((lam, len(out[0])))
        return out

    monkeypatch.setattr(minimizer, "_tangent", recorded)
    return calls


@pytest.mark.parametrize("b_name, rows", [("quad_weight", 1),
                                          ("quartic_weight", 2)])
def test_tangent_is_the_derivative_of_the_branch(request, grid5, quad_weight,
                                                 b_name, rows):
    # central differences of converged pairs at lam +- 1e-3 agree with the
    # bordered solve to their own O(1e-6) truncation error
    b = request.getfixturevalue(b_name)
    params = FlowParams(max_iters=8000, grad_tol=1e-9, stall_window=1500)
    lam, dlam = 10.0, 1e-3
    at = descend(quad_weight, b, lam, grid5, params)
    up = descend(quad_weight, b, lam + dlam, grid5, params, init_pair=at.pair)
    down = descend(quad_weight, b, lam - dlam, grid5, params, init_pair=at.pair)
    assert at.status == up.status == down.status == "converged"
    x, tangent = minimizer._tangent(at, quad_weight, b, lam, grid5)
    assert len(x) == len(tangent) == rows
    for k, tk in enumerate(tangent):
        fd = ((up.pair.u, up.pair.v)[k] - (down.pair.u, down.pair.v)[k])[1:-1]
        fd /= 2.0 * dlam
        assert np.max(np.abs(fd - tk)) <= 1e-5 * np.max(np.abs(tk))


def test_continuation_sweep_converges_in_few_iterations(monkeypatch, sweep_grid):
    w = WeightProfile.pure_power(1.0, 2.0, 1.0)
    rows = sweep_minimize(SWEEP_LAMS, w, w, sweep_grid, SWEEP_FLOW)
    assert all(r.result.status == "converged" for r in rows)
    assert sum(r.result.iterations for r in rows) <= 150
    # each flow from the plain warm start (the polish still armed at once)
    # reaches the same minimizers
    monkeypatch.setattr(minimizer, "_PREDICTOR_TRIES", 0)
    plain = sweep_minimize(SWEEP_LAMS, w, w, sweep_grid, SWEEP_FLOW)
    assert sum(r.result.iterations for r in plain) > 150
    for row, ref in zip(rows, plain):
        assert ref.result.status == "converged"
        assert row.result.q_lambda == pytest.approx(ref.result.q_lambda,
                                                    rel=1e-12, abs=0.0)


def test_predicted_start_is_never_above_the_warm_start(monkeypatch, sweep_grid):
    w = WeightProfile.pure_power(1.0, 2.0, 1.0)
    _, flows = _recorded_sweep(monkeypatch, SWEEP_LAMS, w, w, sweep_grid,
                               SWEEP_FLOW)
    for (lam0, _, prev), (lam, start, _) in zip(flows, flows[1:]):
        assert start is not prev.pair            # the predictor is used
        assert (energy(start, w, w, lam, sweep_grid).value
                <= energy(prev.pair, w, w, lam, sweep_grid).value)
    # from the first coupling the full tangent step overshoots; the start
    # is a shorter step along it
    (lam0, _, first), (lam1, start, _) = flows[:2]
    [x], [tangent] = minimizer._tangent(first, w, w, lam0, sweep_grid)
    full = x.copy()
    full[1:-1] += (lam1 - lam0) * tangent
    full[0] = full[1]
    assert (energy(FieldPair(u=full, v=full), w, w, lam1, sweep_grid).value
            > energy(first.pair, w, w, lam1, sweep_grid).value)


def test_no_prediction_after_a_flow_that_did_not_converge(monkeypatch, grid5,
                                                          quad_weight, quick_flow):
    # the sweep of test_sweep_monotone_and_pooled, whose lam = 2 flow
    # concentrates: the lam = 5 flow starts from that flow's own pair
    tangents = _recorded_tangents(monkeypatch)
    _, flows = _recorded_sweep(monkeypatch, [2.0, 5.0, 8.0, 11.0, 14.0],
                               quad_weight, quad_weight, grid5, quick_flow)
    (_, _, conc), (_, start, _) = flows[:2]
    assert conc.status == "concentrating"
    assert start is conc.pair
    assert [res.status for _, _, res in flows[1:]] == ["converged"] * 4
    assert tangents == [(5.0, 1), (8.0, 1), (11.0, 1)]


def test_two_row_sweep_uses_the_predictor(monkeypatch, grid5, quad_weight,
                                          quartic_weight, quick_flow):
    tangents = _recorded_tangents(monkeypatch)
    rows, flows = _recorded_sweep(monkeypatch, [8.0, 10.0, 12.0], quad_weight,
                                  quartic_weight, grid5, quick_flow)
    assert tangents == [(8.0, 2), (10.0, 2)]
    assert all(r.result.status == "converged" for r in rows)
    for (_, _, prev), (_, start, _) in zip(flows, flows[1:]):
        assert start is not prev.pair
        assert not np.array_equal(start.u, start.v)


# --- dilation move of a concentrating flow ----------------------------------


def test_criterion_12_flow_reaches_the_detector_by_the_move(grid5_geo,
                                                            quad_weight):
    params = FlowParams(max_iters=20000, grad_tol=1e-12, stall_window=20000)
    res = descend(quad_weight, quad_weight, 0.0, grid5_geo, params)
    assert res.status == "concentrating" and res.iterations <= 300
    # 14.81399836: the same flow without the move, which the detector
    # stopped after 6,130 iterations
    assert res.q_lambda == pytest.approx(14.81399836, rel=1e-5, abs=0.0)
    # cut at the checkpoint of its one move, the flow reports the moved rows
    # (at the detector's sup bound, the origin node tied to its neighbour),
    # and best_trace ends at their energy
    cut = descend(quad_weight, quad_weight, 0.0, grid5_geo,
                  replace(params, max_iters=res.iterations - 10))
    start = minimizer._initial_pair(quad_weight, quad_weight, grid5_geo, params).u
    bound = minimizer._CONC_SUP_FACTOR * np.max(np.abs(start)) / lq_norm(start, grid5_geo)
    assert 0.99 * bound < np.max(np.abs(cut.pair.u)) <= bound
    assert cut.pair.u[0] == cut.pair.u[1]
    assert cut.best_trace[-1] < cut.best_trace[-2]
    assert cut.q_lambda == pytest.approx(cut.best_trace[-1], rel=1e-12, abs=0.0)


def _move_forbidden(*args):
    raise AssertionError("a converging flow must never try the dilation move")


@pytest.mark.parametrize("grid_name, b_name, lams, params", [
    ("sweep_grid", "quad_weight", SWEEP_LAMS, SWEEP_FLOW),   # one row
    ("grid5", "quartic_weight", [8.0, 10.0, 12.0], None),    # two rows
])
def test_converging_sweep_never_moves(request, monkeypatch, quad_weight,
                                      quick_flow, grid_name, b_name, lams,
                                      params):
    monkeypatch.setattr(minimizer, "_dilate", _move_forbidden)
    grid = request.getfixturevalue(grid_name)
    b = request.getfixturevalue(b_name)
    rows = sweep_minimize(lams, quad_weight, b, grid, params or quick_flow)
    assert all(r.result.status == "converged" for r in rows)


@pytest.mark.parametrize("b_name, lam", [("quad_weight", 2.0),      # one row
                                         ("quartic_weight", 0.0)])  # two rows
def test_losing_move_leaves_the_flow_bitwise(request, monkeypatch, grid5,
                                             quad_weight, quick_flow, b_name,
                                             lam):
    # stand-ins for the move at every checkpoint where it is tried: one
    # writes nothing (the flow without the move), one writes rows of the
    # same sup but far higher energy, and two write rows whose normalized
    # sup exceeds the detector's bound: a spike, and a dilation past it
    b = request.getfixturevalue(b_name)
    calls = []

    def nothing(xs, s, nodes, out):
        calls.append("nothing")
        raise DegeneratePair("no move")

    def higher(xs, s, nodes, out):
        calls.append("higher")
        for t, xk in zip(out, xs):
            t[:] = xk
            t[1:-1:2] *= -1.0
        return out

    def spike(xs, s, nodes, out):
        calls.append("spike")
        for t, xk in zip(out, xs):
            t[:] = xk
            t[:3] *= 1e4
        return out

    def past(xs, s, nodes, out):
        calls.append("past")
        return dilate(xs, 2.0 * s, nodes, out)

    dilate = minimizer._dilate
    results = []
    for move in (nothing, higher, spike, past):
        monkeypatch.setattr(minimizer, "_dilate", move)
        results.append(descend(quad_weight, b, lam, grid5, quick_flow))
    tries = calls.count("nothing")
    assert tries > 0
    assert calls.count("higher") == calls.count("spike") == calls.count("past") == tries
    without = results[0]
    assert without.status == "concentrating"
    for res in results[1:]:
        for x, y in zip(_result_fields(without), _result_fields(res)):
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y)
            else:
                assert x == y


# on the uniform grid the shrunken profile is below the grid's resolution,
# and interpolating it at the nodes clips its peak (0.886 of the bound)
@pytest.mark.parametrize("grid_name, b_name, lam, reach", [
    ("grid5_geo", "quad_weight", 0.0, 0.99),    # criterion 12's flow
    ("grid5", "quad_weight", 2.0, 0.85),
    ("grid5_geo", "quartic_weight", 2.0, 0.99),     # two rows
])
def test_moved_rows_stay_at_the_detectors_sup_bound(request, monkeypatch,
                                                    quad_weight, grid_name,
                                                    b_name, lam, reach):
    # a moved row never passes the sup test by itself: the detector fires
    # only on rows the flow has relaxed
    grid = request.getfixturevalue(grid_name)
    b = request.getfixturevalue(b_name)
    params = FlowParams(max_iters=20000, grad_tol=1e-12, stall_window=20000)
    start = minimizer._initial_pair(quad_weight, b, grid, params).u
    bound = minimizer._CONC_SUP_FACTOR * np.max(np.abs(start)) / lq_norm(start, grid)
    normalize = minimizer._normalizer(grid)
    sups = []
    dilate = minimizer._dilate

    def recorded(xs, s, nodes, out):
        dilate(xs, s, nodes, out)
        sups.append(max(np.max(np.abs(normalize(t.copy(), np.empty_like(t))))
                        for t in out))
        return out

    monkeypatch.setattr(minimizer, "_dilate", recorded)
    res = descend(quad_weight, b, lam, grid, params)
    assert res.status == "concentrating"
    assert sups and max(sups) <= bound
    assert sups[0] > reach * bound              # the first move reaches it
    assert np.all(np.diff(res.best_trace) <= 0.0)


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
