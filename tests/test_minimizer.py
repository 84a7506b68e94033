"""Descent flow, multipliers, sweeps, and verdict dispatch."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from critvar import (Case, FieldPair, FlowParams, WeightProfile, build_grid,
                     descend, dirichlet_field, existence_verdict, first_eigenpair,
                     sweep_minimize)
from critvar import minimizer
from critvar.errors import BadSpectrum, DegeneratePair, NumericFault
from critvar.spectral import TridiagonalOperator
from conftest import (bordered_step_reference, concentration_diagnostic, el_residual,
                      energy, lagrange_multipliers, lq_norm, smooth_dirichlet_field)


def _normalized_pair(grid, rng):
    u = smooth_dirichlet_field(grid, rng)
    v = smooth_dirichlet_field(grid, rng)
    return FieldPair(u=u / lq_norm(u, grid), v=v / lq_norm(v, grid))


def test_multiplier_average_is_energy(grid5, quad_weight, rng):
    op = minimizer.assemble_operator(quad_weight, grid5)
    kern = minimizer._kernel((op, op), 3.0, grid5)
    for _ in range(20):
        pair = _normalized_pair(grid5, rng)
        (ga, gb, p), *_ = kern.report([pair.u.copy(), pair.v.copy()])
        l1, l2 = ga - 3.0 * p, gb - 3.0 * p
        rep = energy(pair, quad_weight, quad_weight, 3.0, grid5)
        assert (l1 + l2) / 2.0 == pytest.approx(rep.value, rel=1e-12)


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
    a = WeightProfile(1.0, 2.0, 1.0)
    b = WeightProfile(1.0, 2.0, 1.0)
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
    a = WeightProfile(1.0, 2.0, 1.0)
    b = WeightProfile(1.0, 2.0, b_coeff)
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
# flow moves at 10, where it holds 0.675 of its mass inside R/10, and the
# detector fires at 20; without the move the mass test first passes at 150
# and the detector fires at 720); at 2 the mass test is
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
    a = WeightProfile(1.0, 2.0, 1.0)
    b = WeightProfile(1.0, 4.0, 1.0)
    params = FlowParams(max_iters=8000, grad_tol=1e-5, stall_window=1500)
    accepted = []
    polish = minimizer._newton_polish

    def kept(*args):
        out = polish(*args)
        if out[0] is not None:
            accepted.append([row.copy() for row in out[0].x])
        return out

    monkeypatch.setattr(minimizer, "_newton_polish", kept)
    polished = descend(a, b, 4.0, grid, params)
    monkeypatch.setattr(minimizer, "_NEWTON_SWITCH", 0.0)
    flow = descend(a, b, 4.0, grid, params)
    assert polished.status == flow.status == "converged"
    assert polished.q_lambda == pytest.approx(flow.q_lambda, rel=1e-12, abs=0.0)
    # the split of the energy between the multipliers moves to first order
    # with the residual: the flow stops at grad_tol, 3e-8 relative away
    for name in ("multiplier_u", "multiplier_v"):
        assert getattr(polished, name) == pytest.approx(getattr(flow, name),
                                                        rel=1e-7, abs=0.0)
    # the polish, armed at residual 1, finishes the flow (5,420 iterations alone)
    assert polished.iterations <= 120
    [rows] = accepted
    assert len(rows) == 2 and all(np.all(row[:-1] > 0.0) for row in rows)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from([2.0, 3.0, 4.0]), l=st.sampled_from([2.0, 3.0, 4.0]),
       frac=st.floats(0.15, 0.9),
       init=st.sampled_from(["bubble", "eigenfunction", "random"]))
def test_polish_agrees_with_flow_inside_the_existence_interval(k, l, frac, init):
    # a coupling between the gap threshold and lambda_tilde, on a coarse grid
    grid = build_grid(5, 1.0, 400)
    a = WeightProfile(1.0, k, 1.0)
    b = WeightProfile(1.0, l, 1.0)
    gap = Case(5, k, l, 1.0, 1.0).gap
    lam_tilde = min(first_eigenpair(a, grid).lambda1, first_eigenpair(b, grid).lambda1)
    lam = gap + frac * (lam_tilde - gap)
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


@pytest.mark.parametrize("bands", [(1, 1), (2, 2)])
def test_solve_banded_is_scipys_bit_for_bit(bands, rng):
    # the one- and two-row Newton steps' bands, with three right-hand sides
    # in LAPACK's column-major layout, which the solve leaves as they are
    n = 3000
    ab = rng.standard_normal((2 * bands[0] + 1, n))
    ab[bands[0]] += 8.0
    rhs = np.asfortranarray(rng.standard_normal((n, 3)))
    before = rhs.copy()
    ref = solve_banded(bands, ab.copy(), rhs)
    x = minimizer.solve_banded(bands, ab.copy(), rhs)
    assert np.array_equal(x.view(np.int64), ref.view(np.int64))
    assert np.array_equal(rhs, before)


def _newton_state(weights, lam, grid, rows):
    """(kernel, normalized rows, multipliers, raw gradient) of the distinct
    rows at coupling lam, as descend hands them to the polish."""
    kern = minimizer._kernel(tuple(minimizer.assemble_operator(w, grid)
                                   for w in weights), lam, grid)
    w = kern.rows([x.copy() for x in rows])
    kern.evaluate(w)
    kern.gradient(w)
    return kern, w.x, [gk - lam * w.p for gk in w.g], w.d


@pytest.mark.parametrize("start", ["converged", "far"])
@pytest.mark.parametrize("b_name, rows", [("quad_weight", 1), ("quartic_weight", 2)])
def test_bordered_step_matches_the_full_solve(request, grid5, quad_weight, b_name,
                                              rows, start):
    # the step takes J^-1 d - x in place of J^-1 f_k of the row of largest
    # |L_k|; from a converged pair (residual about 1e-10) and from 1 - r^2
    # (about 80) it must be the step of the solve of every column, and land
    # as well (they agree to about 3e-8 relative)
    b = request.getfixturevalue(b_name)
    if start == "converged":
        pair = descend(quad_weight, b, 10.0, grid5,
                       FlowParams(max_iters=8000, grad_tol=1e-9, stall_window=1500)).pair
        x = [pair.u, pair.v][:rows]
    else:
        x = [dirichlet_field(1.0 - grid5.nodes ** 2, grid5)] * rows
    kern, x, mults, d = _newton_state((quad_weight, b)[:rows], 10.0, grid5, x)

    def residual_after(dx):
        y = [xk.copy() for xk in x]
        for yk, dk in zip(y, dx):
            yk[1:-1] += dk
            yk[0] = yk[1]
        return kern.report(y)[1]

    new, ref = (step(x, mults, d, kern) for step in (minimizer._bordered_step,
                                                    bordered_step_reference))
    scale = max(np.max(np.abs(dk)) for dk in ref)
    assert all(np.max(np.abs(a - b)) <= 1e-6 * scale for a, b in zip(new, ref))
    assert residual_after(new) <= 2.0 * residual_after(ref)


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


def _fake_kernel(grid, weight, residual):
    """The one-row kernel at lam = 9 whose evaluate(w) sets a unit energy
    without normalizing and whose gradient(w) writes a zero gradient and
    sets w.res to residual(); its workspaces, operators, masses and q,
    which the bordered solve reads, are real."""
    kern = minimizer._kernel((minimizer.assemble_operator(weight, grid),), 9.0, grid)

    def evaluate(w):
        w.e, w.g, w.p = 1.0, [1.0], 0.0
        return w.e

    def gradient(w):
        for dk in w.d:
            dk.fill(0.0)
        w.res = residual()
        return w.res

    kern.evaluate, kern.gradient = evaluate, gradient
    return kern


def _evaluated(kern, x):
    """The workspace of the row x, evaluated by kern, as descend hands it to
    the polish."""
    at = kern.rows([x])
    kern.evaluate(at)
    kern.gradient(at)
    return at


def _scripted_polish(monkeypatch, grid, weight, residuals, grad_tol):
    """_newton_polish on a fixed row with a scripted residual per evaluation
    (the Newton steps themselves are real, and zero); returns its result and
    the number of solves it made."""
    script = iter(residuals)
    solved = []

    def counted(*args, **kwargs):
        solved.append(1)
        return solve_banded(*args, **kwargs)

    monkeypatch.setattr(minimizer, "solve_banded", counted)
    kern = _fake_kernel(grid, weight, lambda: next(script))
    at = _evaluated(kern, dirichlet_field(1.0 - grid.nodes ** 2, grid))
    out = minimizer._newton_polish(at, kern, grad_tol, 2.0)
    return out, len(solved)


@pytest.mark.parametrize("residuals, solves, accepted", [
    ([0.3, 0.7, 0.02, 2e-4, 3e-7], 4, True),    # one overshoot, then quadratic
    # the third step raises it, and so do its 1/2, 1/4 and 1/8 steps
    ([0.3, 0.7, 0.02, 0.03, 0.03, 0.02, 0.025], 3, False),
    ([0.3, 0.7, 0.7, 0.8, 0.9, 1.0], 2, False),     # the second step, likewise
    # the third step is taken at half length; the fifth fails like the third
    ([0.3, 0.7, 0.02, 0.03, 0.01, 0.005, 0.006, 0.007, 0.008, 0.009], 5, False),
    # the third step is taken at half length, then Newton converges
    ([0.3, 0.7, 0.02, 0.03, 0.01, 2e-4, 3e-7], 5, True),
    ([0.3 * 0.6 ** k for k in range(13)], 12, False),    # _NEWTON_STEPS reached
    # gap-4's accepted attempt (1,500 cells): two damped steps in a row,
    # 0.784 -> 0.70 -> 0.69, then full steps to the tolerance
    ([0.997, 6.22, 0.784, 1.76, 0.841, 0.70, 1.33, 0.69, 0.637, 0.0989, 0.0164,
      9.11e-5, 2.99e-8], 9, True),
    # test_custom_init's second attempt: its third damped step in a row ends
    # it at 6 solves; the crawl went on to all 12, to 3.56
    ([8.3, 19.1, 10.1, 7.6, 7.85, 5.74, 9.18, 5.16, 9.58, 4.98, 9.62, 4.92, 9.75,
      4.94, 4.3, 11.5, 5.1, 3.95, 13.1, 5.39, 3.79, 14.6, 5.74, 3.78, 16.0, 6.13,
      3.87, 3.56], 6, False),
])
def test_polish_steps_only_while_the_residual_falls(monkeypatch, grid5, quad_weight,
                                                    residuals, solves, accepted):
    assert minimizer._NEWTON_STEPS == 12 and minimizer._NEWTON_HALVINGS == 3
    assert minimizer._NEWTON_DAMPED == 3
    (rows, _, _), solved = _scripted_polish(monkeypatch, grid5, quad_weight,
                                            residuals, 1e-6)
    assert solved == solves
    assert (rows is not None) == accepted


@pytest.mark.parametrize("residuals, grad_tol, solves, floor", [
    # gap-4's attempt at residual 0.3 (1,500 cells): a 94-fold cut is not yet
    # quadratic, so the slow step before it ends nothing
    ([0.299, 2.37, 0.122, 0.115, 1.22e-3, 5.6e-6], 1e-5, 5, None),
    # n3000/random of bench/flow_iter.py, whose grad_tol is below the
    # bordered solve's floor: the step after the quadratic ones ends it
    (itertools.chain([0.296, 0.271, 6.9e-3, 2.6e-5, 1.2e-9, 1.05e-9],
                     itertools.repeat(1.0e-9)), 1e-14, 5, 1.05e-9),
])
def test_polish_ends_at_the_solves_floor(monkeypatch, grid5, quad_weight,
                                         residuals, grad_tol, solves, floor):
    (rows, value, _), solved = _scripted_polish(monkeypatch, grid5, quad_weight,
                                                residuals, grad_tol)
    assert solved == solves
    assert (rows is not None) == (floor is None)
    if floor is not None:
        assert value == floor


@pytest.mark.parametrize("modes, accepted", [(1, True), (3, False)])
def test_polish_rejects_rows_that_change_sign(grid5, quad_weight, modes,
                                              accepted):
    # rows already at grad_tol: cos((2j - 1) pi r / 2) changes sign for j > 1
    x = dirichlet_field(np.cos((2 * modes - 1) * np.pi * grid5.nodes / 2.0), grid5)
    kern = _fake_kernel(grid5, quad_weight, lambda: 1e-7)
    rows, _, _ = minimizer._newton_polish(_evaluated(kern, x), kern, 1e-6, 2.0)
    assert (rows is not None) == accepted


def test_non_finite_gradient_is_numeric_fault(monkeypatch, grid5, quad_weight):
    def nan_flux_difference(f, out):
        out.fill(math.nan)
        return out

    monkeypatch.setattr(TridiagonalOperator, "_flux_difference",
                        staticmethod(nan_flux_difference))
    with pytest.raises(NumericFault):
        descend(quad_weight, quad_weight, 5.0, grid5, FlowParams(max_iters=5))


@pytest.mark.parametrize("errors", ["warn", "raise"])
def test_overflow_in_a_flow_is_numeric_fault(quad_weight, errors):
    # the residual's squares overflow: a raw RuntimeWarning (an error under
    # the suite's warning filter) or FloatingPointError escaped the flow
    grid = build_grid(5, 1.0, 200, grading="geometric", ratio=1.01)
    with np.errstate(all=errors), pytest.raises(NumericFault):
        descend(quad_weight, quad_weight, 1e300, grid)


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
    # lam < 0 skips sign normalization, so the reported energy is that of
    # the rows the flow holds, not of its trial rows
    monkeypatch.setattr(minimizer, "_newton_polish", _polish_forbidden)
    grid = request.getfixturevalue(grid_name)
    b = request.getfixturevalue(b_name)
    params = FlowParams(max_iters=max_iters, grad_tol=1e-12, stall_window=20000)
    res = descend(quad_weight, b, lam, grid, params)
    assert res.status == "concentrating"
    assert res.q_lambda == pytest.approx(res.best_trace[-1], rel=1e-12)


@pytest.mark.parametrize("b_name", ["quad_weight", "quartic_weight"])
def test_stalled_flow_reports_the_rows_it_holds(request, grid5, quad_weight,
                                                b_name):
    # an unreachable tolerance ends the flow on its stall window, after
    # accepted steps that move the energy by less than the flow's 1e-14
    # relative slack; the rows it holds then are reported, and they are no
    # worse than the rows it held when the best energy was last lowered
    # (measured: about 1e-13 lower in energy, with a residual 2 to 6 times
    # smaller)
    b = request.getfixturevalue(b_name)
    params = FlowParams(max_iters=6000, grad_tol=1e-14, stall_window=30)
    res = descend(quad_weight, b, 10.0, grid5, params)
    last = int(np.flatnonzero(np.diff(res.best_trace) < 0)[-1]) + 1
    assert res.status == "stalled" and res.iterations > last + 1
    cut = descend(quad_weight, b, 10.0, grid5, replace(params, max_iters=last))
    assert res.q_lambda <= cut.q_lambda
    assert res.el_residual <= cut.el_residual


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


def test_custom_init(monkeypatch, grid5, quad_weight):
    # its warm attempt at residual 86 fails at the third solve, and the one
    # at 8.3 takes damped steps from 7.6 on (5.74, 5.16, 4.98, ...), which
    # end it at 6 solves instead of all 12
    solves = []
    polish, solve = minimizer._newton_polish, minimizer.solve_banded

    def attempt(*args):
        solves.append(0)
        return polish(*args)

    def counted(*args, **kwargs):
        solves[-1] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(minimizer, "_newton_polish", attempt)
    monkeypatch.setattr(minimizer, "solve_banded", counted)
    u = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    params = FlowParams(max_iters=2000, grad_tol=1e-5)
    res = descend(quad_weight, quad_weight, 5.0, grid5, params,
                  init_pair=FieldPair(u=u, v=u.copy()))
    assert res.iterations > 0
    assert solves == [3, 6]


def test_unit_weight_flow_close_to_continuum(grid5_fine):
    from critvar import bubble_constants

    unit = WeightProfile(1.0)
    s_grid = descend(unit, unit, 0.0, grid5_fine,
                     FlowParams(max_iters=20000, grad_tol=1e-7)).q_lambda
    # the discrete minimum sits slightly below the continuum constant
    assert s_grid == pytest.approx(bubble_constants(5).s, rel=1e-2)
    assert s_grid < bubble_constants(5).s


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_non_finite_coupling_rejected(grid5, quad_weight, lam):
    with pytest.raises(NumericFault):
        descend(quad_weight, quad_weight, lam, grid5, FlowParams(max_iters=5))


@pytest.mark.parametrize("setting", [
    {"step": math.nan}, {"step": math.inf}, {"grad_tol": math.nan},
    {"grad_tol": math.inf}, {"max_iters": -5}, {"max_iters": 0},
    {"stall_window": -1}, {"stall_window": 0}, {"seed": -1},
], ids=lambda setting: "{}={}".format(*next(iter(setting.items()))))
def test_flow_settings_that_run_nothing_rejected(setting):
    # each once ran a flow of 0 iterations or one that stalled at once, and a
    # negative seed was numpy's ValueError in the middle of a random start
    with pytest.raises(ValueError):
        FlowParams(**setting)


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
    # the flow's mass fraction and the reference round differently
    assert pooled.concentration == pytest.approx(concentration_diagnostic(
        pooled.pair.u, 0.1 * grid5.radius, grid5), rel=1e-14)
    assert pooled.concentration == rows[1].result.concentration
    # the row's energy comes from the kernel call that gives its multipliers
    op = minimizer.assemble_operator(quad_weight, grid5)
    (ga, gb, p), *_ = minimizer._kernel((op, op), 2.0, grid5).report(
        [pooled.pair.u.copy(), pooled.pair.v.copy()])
    q, l1, l2 = 0.5 * ga + 0.5 * gb - 2.0 * p, ga - 2.0 * p, gb - 2.0 * p
    assert (pooled.q_lambda, pooled.multiplier_u, pooled.multiplier_v) == (q, l1, l2)
    assert pooled.q_lambda == 0.5 * (l1 + l2)


def test_reported_quantities_describe_the_reported_pair(grid5, sweep_grid, quad_weight,
                                                        quartic_weight, quick_flow):
    # the flow's kernel reports them; the references evaluate the pair anew.
    # The pooled row is the first of ONE_ROW_POOL's sweep, won by the pair
    # of a concentrating flow at a coupling above it
    cases = [(quartic_weight, quad_weight, 10.0, grid5, "converged",
              descend(quartic_weight, quad_weight, 10.0, grid5, quick_flow)),
             (quad_weight, quad_weight, 2.0, grid5, "concentrating",
              descend(quad_weight, quad_weight, 2.0, grid5, quick_flow)),
             (quad_weight, quad_weight, ONE_ROW_POOL[0], sweep_grid, "pooled",
              sweep_minimize(ONE_ROW_POOL, quad_weight, quad_weight, sweep_grid,
                             SWEEP_FLOW)[0].result)]
    for a, b, lam, grid, status, res in cases:
        assert res.status == status
        pair = res.pair
        assert res.q_lambda == pytest.approx(energy(pair, a, b, lam, grid).value,
                                             rel=1e-12, abs=0.0)
        l1, l2 = lagrange_multipliers(pair, a, b, lam, grid)
        assert res.multiplier_u == pytest.approx(l1, rel=1e-12, abs=0.0)
        assert res.multiplier_v == pytest.approx(l2, rel=1e-12, abs=0.0)
        # the larger of the two rows' masses inside R/10
        assert res.concentration == pytest.approx(max(
            concentration_diagnostic(x, 0.1 * grid.radius, grid) for x in (pair.u, pair.v)),
            rel=1e-12, abs=0.0)
        assert res.el_residual == pytest.approx(
            el_residual(pair, l1, l2, a, b, lam, grid), rel=0.0, abs=1e-9)


def test_sweep_row_never_won_by_its_own_pair():
    # existence-sweep geometry, where re-evaluating a flow's own pair lands
    # a few ulps below the flow's energy; such a row must report the flow
    grid = build_grid(5, 1.0, 1500, grading="geometric", ratio=1.004)
    w = WeightProfile(1.0, 2.0, 1.0)
    lams = [9.082466, 11.1759, 13.217633, 15.421775, 17.602526, 19.782147,
            21.931874, 23.945944]
    params = FlowParams(max_iters=8000, grad_tol=1e-5, stall_window=1500)
    rows = sweep_minimize(lams, w, w, grid, params)
    warm = None
    for row in rows:
        # the replay starts each flow where the sweep does, from the pair
        # of the flow before it if that converged; no pair from another
        # coupling wins here
        flow = descend(w, w, row.lam, grid, params, init_pair=warm)
        warm = flow.pair if flow.status == "converged" else None
        assert np.array_equal(row.result.pair.u, flow.pair.u)
        assert row.result.q_lambda == flow.q_lambda
        assert row.result.status == flow.status


# --- continuation along the sweep -------------------------------------------

# the existence-sweep benchmark workload at seed 11
SWEEP_LAMS = [9.0446, 11.238094, 13.29651, 15.415663, 17.504842, 19.800375,
              21.7696, 23.922903]
SWEEP_FLOW = FlowParams(max_iters=8000, grad_tol=1e-5, stall_window=1500)
# couplings of sweeps on sweep_grid whose first rows are won by the pairs of
# flows at higher couplings: a = b = 1 + r^2 (one row), and a = 1 + r^2,
# b = 1 + r^4 (two rows)
ONE_ROW_POOL = [5.0, 6.0, 6.6, 7.0, 7.3, 8.0, 9.0]
TWO_ROW_POOL = [2.5, 3.0, 3.5, 4.0, 4.5]


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


@pytest.mark.parametrize("b_name, lams, statuses", [
    ("quad_weight", ONE_ROW_POOL, ["pooled"] * 3 + ["concentrating"] + ["converged"] * 3),
    ("quartic_weight", TWO_ROW_POOL, ["pooled"] * 3 + ["converged"] * 2),
], ids=["one-row", "two-rows"])
def test_pool_ranks_as_the_reference_does(request, monkeypatch, sweep_grid, quad_weight,
                                          b_name, lams, statuses):
    # the pool ranks each candidate by the terms its flow reports; the
    # one-shot reference on the same pairs, sign-normalized, picks the same
    # winner per row
    b = request.getfixturevalue(b_name)
    rows, flows = _recorded_sweep(monkeypatch, lams, quad_weight, b, sweep_grid,
                                  SWEEP_FLOW)
    assert [lam for lam, _, _ in flows] == lams
    assert [r.result.status for r in rows] == statuses
    for row, (_, _, flow) in zip(rows, flows):
        val, pr = min(((energy(pr, quad_weight, b, row.lam, sweep_grid).value, pr)
                       for pr in (FieldPair(u=np.abs(f.pair.u), v=np.abs(f.pair.v))
                                  for _, _, f in flows if f is not flow)),
                      key=lambda cand: cand[0])
        pooled = val < flow.q_lambda
        assert (row.result.status == "pooled") == pooled
        want = pr if pooled else flow.pair
        assert np.array_equal(row.result.pair.u, want.u)
        assert np.array_equal(row.result.pair.v, want.v)


def test_sweep_warm_starts_only_from_a_converged_pair(monkeypatch, sweep_grid,
                                                      quad_weight):
    # a flow warm-started from the pair of a concentrating flow lands on a
    # grid-scale spike at 11.97337, which then won every row
    rows, flows = _recorded_sweep(monkeypatch, [0.0, 3.0, 6.0, 9.0, 12.0], quad_weight,
                                  quad_weight, sweep_grid, SWEEP_FLOW)
    assert [r.result.status for r in rows] == ["pooled"] * 2 + ["concentrating"] + \
        ["converged"] * 2
    assert [r.result.q_lambda for r in rows] == pytest.approx(
        [14.81379, 14.81286, 14.8119, 14.66712, 13.93493], rel=1e-6, abs=0.0)
    assert flows[0][1] is None
    for (_, _, prev), (_, start, _) in zip(flows, flows[1:]):
        assert start is (prev.pair if prev.status == "converged" else None)


def test_sweep_rejects_a_negative_coupling(quad_weight):
    # the pool's candidates (|u|, |v|) are minimal only at lam >= 0: the
    # lam = -3 row was pooled at 11.946677, while (u, -v) of the lam = 3
    # pair (u, v) gives 11.946522 there
    grid = build_grid(5, 1.0, 200, grading="geometric", ratio=1.01)
    with pytest.raises(ValueError, match=r"Q\(-lam\) = Q\(lam\)"):
        sweep_minimize([-3.0, 3.0], quad_weight, quad_weight, grid, FlowParams())


def test_flow_reports_the_terms_of_its_pair(monkeypatch, sweep_grid, quad_weight,
                                            quartic_weight):
    # every row, pooled or not, carries the kernel's terms (g_a, g_b, p) of
    # its pair: they give its energy and multipliers bit for bit, the
    # reference's terms at another coupling, and the sweep builds one kernel
    # per flow and one per pooled row
    kernels, kernel = [], minimizer._kernel

    def counted(*args):
        kernels.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(minimizer, "_kernel", counted)
    rows, flows = _recorded_sweep(monkeypatch, TWO_ROW_POOL, quad_weight, quartic_weight,
                                  sweep_grid, SWEEP_FLOW)
    pooled = [r.lam for r in rows if r.result.status == "pooled"]
    assert len(pooled) == 3
    assert kernels == [lam for lam, _, _ in flows] + pooled
    for row in rows:
        res, lam = row.result, row.lam
        ga, gb, p = res.terms
        assert res.q_lambda == 0.5 * ga + 0.5 * gb - lam * p
        assert (res.multiplier_u, res.multiplier_v) == (ga - lam * p, gb - lam * p)
        ref = energy(res.pair, quad_weight, quartic_weight, 1.5, sweep_grid)
        assert (0.5 * ga, 0.5 * gb, 1.5 * p) == pytest.approx(
            (ref.grad_a, ref.grad_b, ref.coupling), rel=1e-12, abs=0.0)


def test_result_reads_its_energy_and_multipliers_at_its_coupling(grid5, quad_weight,
                                                                 quartic_weight, quick_flow):
    # a result keeps its terms (g_a, g_b, p) and its coupling, and reads its
    # energy and multipliers from them: moved to 2 lam, it reads all three
    # there, from the same terms, as the reference evaluates the pair there
    res = descend(quartic_weight, quad_weight, 10.0, grid5, quick_flow)
    moved = replace(res, lam=20.0)
    ga, gb, p = moved.terms
    assert moved.terms is res.terms
    assert moved.q_lambda == 0.5 * ga + 0.5 * gb - 20.0 * p
    assert (moved.multiplier_u, moved.multiplier_v) == (ga - 20.0 * p, gb - 20.0 * p)
    ref = energy(res.pair, quartic_weight, quad_weight, 20.0, grid5)
    assert moved.q_lambda == pytest.approx(ref.value, rel=1e-12, abs=0.0)
    refs = lagrange_multipliers(res.pair, quartic_weight, quad_weight, 20.0, grid5)
    assert (moved.multiplier_u, moved.multiplier_v) == pytest.approx(refs, rel=1e-12,
                                                                     abs=0.0)


def test_flow_at_zero_coupling_reports_its_pairs_overlap(grid5, quad_weight,
                                                         quartic_weight, quick_flow):
    # at lam = 0 neither the energy nor the gradient reads p = int uv, so
    # the flow does not form it; the record still keeps it
    res = descend(quad_weight, quartic_weight, 0.0, grid5, quick_flow)
    p = res.terms[2]
    ref = energy(res.pair, quad_weight, quartic_weight, 1.0, grid5)
    assert p > 0.0 and p == pytest.approx(ref.coupling, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("cells, grading, ratio, lams",
                         [(800, "uniform", None, (5.0, 6.0)),
                          (1500, "geometric", 1.004, (4.0, 5.0))])
def test_swapped_weights_give_the_mirrored_result(cells, grading, ratio, lams):
    # E_lam(u, v; a, b) = E_lam(v, u; b, a): the move's gate, the detector
    # and the concentration read both rows alike.  The bordered Newton step
    # orders its unknowns by row, so a polished pair differs in its last bits
    grid = build_grid(4, 1.0, cells, grading=grading, ratio=ratio)
    a, b = WeightProfile(1.0, 2.0, 1.0), WeightProfile(1.0, 4.0, 1.0)
    for lam in lams:
        ab, ba = descend(a, b, lam, grid, SWEEP_FLOW), descend(b, a, lam, grid, SWEEP_FLOW)
        assert (ab.status, ab.iterations) == (ba.status, ba.iterations)
        assert ab.concentration == pytest.approx(ba.concentration, rel=1e-12, abs=0.0)
        assert ab.q_lambda == pytest.approx(ba.q_lambda, rel=1e-12, abs=0.0)
        sup = np.max(np.abs(ab.pair.u))
        for x, y in ((ab.pair.u, ba.pair.v), (ab.pair.v, ba.pair.u)):
            np.testing.assert_allclose(x, y, rtol=0.0, atol=1e-10 * sup)


def test_flow_at_zero_coupling_reports_a_nonnegative_pair(grid5, quad_weight, rng):
    # at lam = 0 the energy is blind to each row's sign, so the flow keeps a
    # negative start negative; its report is (|u|, |v|), as at lam > 0
    u = -np.abs(smooth_dirichlet_field(grid5, rng))
    res = descend(quad_weight, quad_weight, 0.0, grid5, FlowParams(max_iters=5),
                  init_pair=FieldPair(u=u, v=u.copy()))
    assert np.all(res.pair.u >= 0.0) and np.all(res.pair.v >= 0.0)


def test_continuation_sweep_converges_in_few_iterations(monkeypatch, sweep_grid):
    # each warm flow starts from the pair of the flow before it, and Newton,
    # armed at its first iteration, finishes it in a few steps
    w = WeightProfile(1.0, 2.0, 1.0)
    rows, flows = _recorded_sweep(monkeypatch, SWEEP_LAMS, w, w, sweep_grid,
                                  SWEEP_FLOW)
    assert flows[0][1] is None
    for (_, _, prev), (_, start, _) in zip(flows, flows[1:]):
        assert start is prev.pair
    assert all(r.result.status == "converged" for r in rows)
    assert sum(r.result.iterations for r in rows[1:]) <= 40
    # the same sweep by the flow alone (every polish refused) reaches the
    # same minimizers
    monkeypatch.setattr(minimizer, "_newton_polish",
                        lambda *args: (None, math.inf, 0))
    plain = sweep_minimize(SWEEP_LAMS, w, w, sweep_grid, SWEEP_FLOW)
    for row, ref in zip(rows, plain):
        assert ref.result.status == "converged"
        assert ref.result.iterations > row.result.iterations
        assert row.result.q_lambda == pytest.approx(ref.result.q_lambda,
                                                    rel=1e-12, abs=0.0)


def test_warm_polish_starts_from_the_flows_evaluation(monkeypatch, sweep_grid,
                                                      quad_weight):
    # the second flow of existence-sweep at seed 11: descend evaluates the
    # warm start once, and the polish solves from that evaluation, then
    # evaluates once per Newton step (the report's own call is not counted)
    first = descend(quad_weight, quad_weight, SWEEP_LAMS[0], sweep_grid, SWEEP_FLOW)
    gradients, solves = [], []
    kernel, solve = minimizer._kernel, minimizer.solve_banded

    def counted_kernel(*args):
        kern = kernel(*args)
        gradient = kern.gradient

        def counted(*call):
            gradients.append(1)
            return gradient(*call)

        kern.gradient = counted
        return kern

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(minimizer, "_kernel", counted_kernel)
    monkeypatch.setattr(minimizer, "solve_banded", counted_solve)
    res = descend(quad_weight, quad_weight, SWEEP_LAMS[1], sweep_grid, SWEEP_FLOW,
                  init_pair=first.pair)
    assert res.status == "converged"
    assert res.iterations == 1 + len(solves)
    assert len(gradients) == 1 + len(solves)


def test_cold_flow_is_finished_by_newton(monkeypatch, sweep_grid, quad_weight):
    # the first flow of existence-sweep at seed 11: the polish, armed at
    # residual 1, takes over long before the flow alone (923 iterations)
    # reaches grad_tol, and lands on the flow's minimizer; the two-row gap
    # point is test_early_polish_agrees_with_flow_at_the_two_row_gap_point
    polished = descend(quad_weight, quad_weight, 9.0446, sweep_grid, SWEEP_FLOW)
    monkeypatch.setattr(minimizer, "_NEWTON_SWITCH", 0.0)
    flow = descend(quad_weight, quad_weight, 9.0446, sweep_grid, SWEEP_FLOW)
    assert polished.status == flow.status == "converged"
    assert polished.iterations <= 15 < flow.iterations
    assert polished.q_lambda == pytest.approx(flow.q_lambda, rel=1e-12, abs=0.0)


# --- dilation move of a concentrating flow ----------------------------------


def test_criterion_12_flow_reaches_the_detector_by_the_move(grid5_geo,
                                                            quad_weight):
    params = FlowParams(max_iters=20000, grad_tol=1e-12, stall_window=20000)
    res = descend(quad_weight, quad_weight, 0.0, grid5_geo, params)
    assert res.status == "concentrating" and res.iterations <= 30
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


def _record_moves(monkeypatch):
    """The iterations at which flows try a dilation move, each the count of
    the flow's gradients before it (a flow that polishes counts more)."""
    grads, moves = [], []
    kernel, dilate = minimizer._kernel, minimizer._dilate

    def counted(*args):
        kern = kernel(*args)
        gradient = kern.gradient

        def counted_gradient(*a):
            grads.append(None)
            return gradient(*a)
        kern.gradient = counted_gradient
        return kern

    def recorded(xs, s, nodes, out):
        moves.append(len(grads))
        return dilate(xs, s, nodes, out)

    monkeypatch.setattr(minimizer, "_kernel", counted)
    monkeypatch.setattr(minimizer, "_dilate", recorded)
    return moves


def test_criterion_12_flow_moves_at_its_first_checkpoint(monkeypatch, grid5_geo,
                                                         quad_weight):
    # at iteration 10 the flow holds 0.670 of its mass inside R/10, above the
    # move's gate _MOVE_MASS and far below the detector's _CONC_MASS
    moves = _record_moves(monkeypatch)
    params = FlowParams(max_iters=20000, grad_tol=1e-12, stall_window=20000)
    res = descend(quad_weight, quad_weight, 0.0, grid5_geo, params)
    assert res.status == "concentrating"
    assert moves and moves[0] == 10


def test_rejected_move_rearms_halfway(monkeypatch, sweep_grid, quad_weight,
                                      quartic_weight):
    # the two-row gap point converges, yet holds 0.602 of its mass inside
    # R/10 at iteration 10 and 0.814 at 70: each move it tries loses and
    # re-arms the gate halfway to all the mass (0.801, then 0.907), so it
    # tries two moves, not ten, and ends bit for bit as a flow that tries none
    monkeypatch.setattr(minimizer, "_MOVE_MASS", 1.0)
    never = descend(quad_weight, quartic_weight, 4.0, sweep_grid, SWEEP_FLOW)
    monkeypatch.undo()
    moves = _record_moves(monkeypatch)
    res = descend(quad_weight, quartic_weight, 4.0, sweep_grid, SWEEP_FLOW)
    assert moves == [10, 70]
    assert res.status == "converged"
    for x, y in zip(_result_fields(never), _result_fields(res)):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


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
# and interpolating it at the nodes clips its peak (0.889 of the bound)
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
    v = existence_verdict(Case(5, 4.0, 4.0, 1.0, 1.0), lam=5.0, lam_tilde=20.0)
    assert v.verdict == "achieved_by_theorem"
    assert v.case_id == "existence.supercritical-powers"


def test_verdict_quadratic_both_threshold():
    case = Case(5, 2.0, 2.0, 1.0, 1.0)
    below = existence_verdict(case, lam=6.5, lam_tilde=30.0)
    above = existence_verdict(case, lam=6.6, lam_tilde=30.0)
    assert below.verdict == "outside_theory"
    assert above.verdict == "achieved_by_theorem"
    assert above.case_id == "existence.quadratic-both"
    assert case.gap == pytest.approx(105.0 / 16.0)


def test_verdict_mixed_quadratic():
    v = existence_verdict(Case(5, 2.0, 4.0, 1.0, 1.0), lam=4.0, lam_tilde=30.0)
    assert v.verdict == "achieved_by_theorem"
    assert v.case_id == "existence.quadratic-first"
    v2 = existence_verdict(Case(5, 4.0, 2.0, 1.0, 1.0), lam=4.0, lam_tilde=30.0)
    assert v2.case_id == "existence.quadratic-second"


def test_verdict_gap_only_above_lambda_tilde():
    v = existence_verdict(Case(5, 4.0, 4.0, 1.0, 1.0), lam=25.0, lam_tilde=20.0)
    assert v.verdict == "energy_gap_only"


def test_verdict_dim4_quadratic_is_gap_only():
    v = existence_verdict(Case(4, 2.0, 2.0, 1.0, 1.0), lam=5.0, lam_tilde=30.0)
    assert v.verdict == "energy_gap_only"
    assert v.case_id == "gap.quadratic-both"


def test_verdict_nonexistence_from_certified_bound():
    v = existence_verdict(Case(5, 2.0, 2.0, 1.0, 1.0), lam=2.0, lam_tilde=30.0,
                          omega_estimate=3.125)
    assert v.verdict == "no_minimizer_by_theorem"


def test_verdict_subquadratic_outside():
    v = existence_verdict(Case(5, 1.5, 4.0, 1.0, 1.0), lam=5.0, lam_tilde=30.0)
    assert v.verdict == "outside_theory"


def test_verdict_bad_spectrum():
    for lam_tilde in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(BadSpectrum):
            existence_verdict(Case(5, 2.0, 2.0, 1.0, 1.0), lam=1.0, lam_tilde=lam_tilde)
