"""Estimation of the coupled infimum by a normalized descent flow.

The flow keeps both components on the unit critical-norm sphere: each
iteration takes a gradient step of the normalized energy simultaneously
in u and v (simultaneous rather than alternating so that a symmetric
configuration with equal weights stays exactly symmetric), renormalizes,
and backtracks on the joint energy.  The raw gradient is preconditioned
with the weighted stiffness operator; an unpreconditioned explicit step
would be CFL-limited by the smallest cell of a graded grid.  When u == v
holds bit for bit, as with equal weights and a symmetric start, the flow
advances that one row and pays for one component per iteration.  Each
trial row costs one banded solve and one fractional power pass: the
normalization writes m|x|^(q-2) x, from which it takes the critical norm
and which the next gradient and the concentration detector reuse.

Stationary points of the discrete flow solve the discrete coupled system

    -div(a grad u) - lam v = L1 |u|^(q-2) u,
    -div(b grad v) - lam u = L2 |v|^(q-2) v,

with the multipliers L1 = int a|grad u|^2 - lam int uv (and the v-analog),
so the flow's convergence test and the system residual are the same norm.

The flow converges only linearly, so once its residual falls to
_NEWTON_SWITCH descend tries to finish with Newton's method on this system,
bordered by the normalization constraints, and after a failed attempt
tries again a decade further down.  A warm-started flow tries Newton from
its first iteration.

At the critical exponent the energy of constant weights is invariant under
the dilation x(r) -> s^((N-2)/2) x(s r), along which a preconditioned step
barely moves, so a flow whose mass collapses onto the center crawls toward
the concentration detector.  Once the detector's mass test passes, descend
tries one dilation move that carries the sup norm to the detector's bound
and keeps it only if it lowers the energy; the flow then relaxes the moved
rows until the detector fires (see descend).

A coupling sweep is a predictor-corrector continuation along the branch of
minimizers: the same bordered Jacobian gives the branch's tangent dx/dlam
at a converged pair, from which the next coupling's flow starts (see
sweep_minimize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import LinAlgError, solve_banded

from .constants import quadratic_part, thresholds
from .energy import (FieldPair, critical_exponent, dirichlet_field, energy,
                     weighted_gradient_energy)
from .errors import BadSpectrum, DegeneratePair, NumericFault
from .grid import RadialGrid, integrate
from .spectral import TridiagonalOperator, assemble_operator, first_eigenpair
from .weights import WeightProfile

_CONC_DELTA_FRACTION = 0.1      # concentration detector: inside radius R/10
_CONC_MASS = 0.99               # lies this fraction of the critical-norm mass
_CONC_SUP_FACTOR = 1e2          # and the sup norm has grown this much
_NEWTON_SWITCH = 0.3            # polish once the flow's residual falls to this
_NEWTON_REARM = 10.0            # after a failed polish at res, try again at res / this
_NEWTON_STEPS = 5               # Newton steps the polish may take to reach grad_tol
_PREDICTOR_TRIES = 3            # tangent steps of 1, 1/2, 1/4 times the coupling step


@dataclass(frozen=True)
class FlowParams:
    step: float = 0.5
    max_iters: int = 3000
    grad_tol: float = 1e-6
    stall_window: int = 250
    init: str = "bubble"            # bubble | eigenfunction | random
    seed: int = 0
    init_eps: float | None = None   # bubble width; default radius^2 / 100

    def __post_init__(self):
        if self.step <= 0.0 or self.grad_tol <= 0.0:
            raise ValueError("step and grad_tol must be positive")
        if self.init not in ("bubble", "eigenfunction", "random"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.init_eps is not None and not self.init_eps > 0.0:
            raise ValueError("init_eps must be positive")


@dataclass(frozen=True)
class MinimizeResult:
    pair: FieldPair            # best pair seen, q-normalized components
    q_lambda: float            # lowest energy seen
    multiplier_u: float
    multiplier_v: float
    el_residual: float
    concentration: float
    status: str                # converged | concentrating | stalled | pooled
    iterations: int            # flow iterations, plus the steps of an accepted polish
    best_trace: np.ndarray = field(repr=False, default=None)


def sign_normalize(pair: FieldPair) -> FieldPair:
    """(|u|, |v|); never increases the energy for nonnegative coupling."""
    return FieldPair(u=np.abs(pair.u), v=np.abs(pair.v))


def concentration_diagnostic(u: np.ndarray, delta: float, grid: RadialGrid) -> float:
    """Fraction of the critical-norm mass inside radius delta."""
    if not 0.0 < delta < grid.radius:
        raise ValueError("need 0 < delta < R")
    q = critical_exponent(grid.dimension)
    dens = grid.masses * np.abs(u) ** q
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    return float(np.sum(dens[grid.nodes <= delta]) / total)


def lagrange_multipliers(
    pair: FieldPair,
    a: WeightProfile,
    b: WeightProfile,
    lam: float,
    grid: RadialGrid,
) -> tuple[float, float]:
    """Multipliers of the two unit-norm constraints for a normalized pair."""
    coupling = lam * integrate(pair.u * pair.v, grid)
    l1 = weighted_gradient_energy(pair.u, a, grid) - coupling
    l2 = weighted_gradient_energy(pair.v, b, grid) - coupling
    return l1, l2


def el_residual(
    pair: FieldPair,
    l1: float,
    l2: float,
    a: WeightProfile,
    b: WeightProfile,
    lam: float,
    grid: RadialGrid,
) -> float:
    """Discrete L2 norm of both coupled-system residuals, summed."""
    if not (np.any(pair.u) or np.any(pair.v)):
        return 0.0
    op_a, op_b = assemble_operator(a, grid), assemble_operator(b, grid)
    q = critical_exponent(grid.dimension)
    m = grid.masses[1:-1]
    u, v = pair.u[1:-1], pair.v[1:-1]
    ru = op_a.apply(u) / m - lam * v - l1 * np.abs(u) ** (q - 2.0) * u
    rv = op_b.apply(v) / m - lam * u - l2 * np.abs(v) ** (q - 2.0) * v
    return float(np.sqrt(np.dot(m, ru * ru) + np.dot(m, rv * rv)))


# ---------------------------------------------------------------------------
# descent flow
# ---------------------------------------------------------------------------


def _smooth_random_field(grid: RadialGrid, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = grid.nodes
    modes = np.arange(1, 9)
    coeffs = rng.standard_normal(modes.size) / modes
    u = np.zeros_like(r)
    for j, c in zip(modes, coeffs):
        u += c * np.sin(j * np.pi * r / grid.radius)
    u[-1] = 0.0
    return u


def _initial_pair(a: WeightProfile, b: WeightProfile, grid: RadialGrid,
                  params: FlowParams) -> FieldPair:
    from .asymptotics import BubbleParams, bubble_field  # deferred, no cycle at import

    if params.init == "bubble":
        eps = params.init_eps if params.init_eps is not None else grid.radius ** 2 / 100.0
        u = bubble_field(BubbleParams(epsilon=eps, cutoff_radius=grid.radius / 2.0), grid)
        return FieldPair(u=u, v=u.copy())
    if params.init == "eigenfunction":
        ua = first_eigenpair(a, grid).eigenfunction
        ub = first_eigenpair(b, grid).eigenfunction
        return FieldPair(u=ua, v=ub)
    u = _smooth_random_field(grid, params.seed)           # init == "random"
    v = _smooth_random_field(grid, params.seed + 1)
    return FieldPair(u=u, v=v)


def _one_row(ops: tuple[TridiagonalOperator, TridiagonalOperator],
             x: tuple[np.ndarray, np.ndarray]) -> bool:
    """True when the flow from x = (u, v) keeps u == v bit for bit: operators
    with identical face conductances c (from which assemble_operator derives
    every other array the flow reads) and an identical start.  Compares
    arrays, not weights: weights with array tables or callables do not
    compare by value, and equal weights are often distinct objects."""
    (op_a, op_b), (u, v) = ops, x
    return np.array_equal(op_a.c, op_b.c) and np.array_equal(u, v)


def _bordered_step(rows, mults, rhs0, ops, lam, m, q):
    """Solve the discrete Euler-Lagrange system's Jacobian at the R distinct
    rows, bordered by the normalization constraints, for the right-hand
    side rhs0 (one dof array per row); returns each row's dof correction.

    Unknowns are the rows, interleaved at R*i + k, and their multipliers
    L_k = mults[k].  Row k's block is K_k - (q-1) L_k M|x_k|^(q-2), with -lam M
    to its partner row -1 - k (on the diagonal when R = 1), so the matrix is
    banded (R, R); the multipliers are eliminated by an R x R Schur
    complement on the linearized constraints f_k . dx_k = 0, where
    f_k = M|x_k|^(q-2) x_k.  The correction dx solves J dx - sum_k f_k dL_k =
    -rhs0: a Newton step for rhs0 = F, the system's residual, and the
    tangent dx/dlam of its solution branch for rhs0 = dF/dlam = -M x_partner.
    """
    r, n = len(rows), m.size
    ab = np.zeros((2 * r + 1, r * n))
    rhs = np.zeros((r * n, r + 1))
    for k, (xk, lk, op, bk) in enumerate(zip(rows, mults, ops, rhs0)):
        xi = xk[1:-1]
        w = m * np.abs(xi) ** (q - 2.0)
        ab[r, k::r] = op.diag - (q - 1.0) * lk * w
        ab[0, r + k::r] = op.off
        ab[2 * r, k:r * (n - 1):r] = op.off
        rhs[k::r, 0] = bk
        rhs[k::r, 1 + k] = w * xi
    if r == 1:
        ab[1] -= lam * m
    else:
        ab[1, 1::2] = ab[3, 0::2] = -lam * m
    sol = solve_banded((r, r), ab, rhs, check_finite=False)
    # dx = -J^-1 rhs0 + sum_k J^-1 f_k dL_k, with f_j . dx_j = 0 for each row j
    f = [rhs[j::r, 1 + j] for j in range(r)]
    schur = np.array([[f[j] @ sol[j::r, 1 + k] for k in range(r)]
                      for j in range(r)])
    dl = np.linalg.solve(schur, [f[j] @ sol[j::r, 0] for j in range(r)])
    dx = sol[:, 1:] @ dl - sol[:, 0]
    return [dx[k::r] for k in range(r)]


def _normalizer(grid: RadialGrid):
    """normalize(t, h) for the flow on this grid: divides row t in place by
    its critical norm and leaves h = m|t|^(q-2) t of the result, m the node
    masses.  At N = 5, |t|^(q-2) = |t|^(4/3) is taken as cbrt(t) t, half the
    cost of the power pass that every other N runs."""
    m, q = grid.masses, critical_exponent(grid.dimension)
    cube = grid.dimension == 5

    def normalize(t, h):
        if cube:
            np.cbrt(t, out=h)                   # sign(t)|t|^(1/3), so h t = |t|^(4/3)
            h *= t
        else:
            np.abs(t, out=h)
            h **= q - 2.0
        h *= m
        h *= t
        s = float(np.dot(h, t))                 # sum m|t|^q
        if s == 0.0 or not math.isfinite(s):
            raise DegeneratePair("flow component collapsed to zero")
        n = s ** (1.0 / q)
        t /= n
        h *= n ** (1.0 - q)
        return t

    return normalize


def _dilate(xs, s, nodes, out):
    """Each row x of xs dilated to x(s r), interpolated at the nodes, into
    the rows of out; the origin node takes its neighbour's value, as in the
    flow.  Beyond r = R / s the rows take x(R) = 0."""
    for t, xk in zip(out, xs):
        t[:] = np.interp(s * nodes, nodes, xk)
        t[0] = t[1]
    return out


def _newton_polish(x, h, ops, lam, grid, normalize, gradient, total_energy,
                   grad_tol, e_max):
    """Newton's method on the bordered discrete Euler-Lagrange system (see
    _bordered_step) from the flow's rows x and their power rows h, which it
    leaves untouched; the rows' face fluxes go to buffers of its own.

    Each step's multipliers L_k and residual come from the flow's own
    gradient code, and each step renormalizes the rows as the flow does.
    The first step may raise the residual (Newton overshoots from outside
    its quadratic region); after that the attempt goes on only while the
    residual falls, for at most _NEWTON_STEPS steps.  Returns (rows,
    energy, steps) once the rows pass the flow's convergence test with
    energy <= e_max and each row of one sign in the interior, else None.
    """
    m, q = grid.masses[1:-1], critical_exponent(grid.dimension)
    y, hy = [xk.copy() for xk in x], [hk.copy() for hk in h]
    d = [np.empty(m.size) for _ in x]
    fy = [np.zeros(m.size + 1) for _ in x]
    last = math.inf
    try:
        for step in range(_NEWTON_STEPS + 1):
            e, g, p = total_energy(y, fy)
            res = gradient(y, hy, fy, g, p, d)
            if res <= grad_tol:
                # Newton may also land on a critical point whose row changes
                # sign; a minimizer's rows each keep one sign
                one_sign = all(np.all(yk[:-1] > 0.0) or np.all(yk[:-1] < 0.0)
                               for yk in y)
                return (y, e, step) if e <= e_max and one_sign else None
            if step == _NEWTON_STEPS or (step > 1 and not res < last):
                return None
            last = res
            dx = _bordered_step(y, [gk - lam * p for gk in g], d, ops, lam, m, q)
            for yk, hk, dxk in zip(y, hy, dx):
                yk[1:-1] += dxk
                yk[0] = yk[1]
                normalize(yk, hk)
    except (LinAlgError, ValueError, FloatingPointError, DegeneratePair):
        return None


def descend(
    a: WeightProfile,
    b: WeightProfile,
    lam: float,
    grid: RadialGrid,
    params: FlowParams = FlowParams(),
    init_pair: FieldPair | None = None,
) -> MinimizeResult:
    """Minimize the normalized coupled energy at coupling lam.

    Terminates on the gradient tolerance, on the concentration detector
    (mass collapse onto the center with unbounded amplitude), on a stall,
    or on the iteration cap.  The reported value is the lowest energy seen.
    The flow starts from init_pair when one is given, else from params.init.

    The flow advances the distinct rows of (u, v): one row when the weights
    assemble to identical arrays and the normalized start has u == v (the
    flow then keeps u == v exactly), two otherwise.  Row k's coupling
    partner is row -1 - k, so both cases run the same arithmetic.  An
    iteration costs per row one banded solve, one fractional power pass and
    O(n) in-place updates in a workspace allocated once per call: the
    normalization of a trial row t writes h = m|t|^(q-2) t, takes the norm
    from h.t = sum m|t|^q and rescales h with t, so that h holds the
    m|x|^(q-2) x term of the next gradient and the mass density h.x the
    concentration detector reads.  At N = 5 the power is a cube root
    (see _normalizer).  The flow's energy is sum_f f_f (x_{f+1} - x_f) over
    the face fluxes f_f = c_f (x_{f+1} - x_f), which it keeps per row, and
    the next gradient reads K x as their difference
    (TridiagonalOperator._flux_difference) instead of applying K; at
    lam == 0 the coupling products are skipped.  The best rows are held by
    reference and copied only when a trial row is about to overwrite them.

    When the system residual falls to _NEWTON_SWITCH (but not to grad_tol),
    or at the first iteration when init_pair is given (a warm start, which
    may already lie in Newton's basin), the flow's rows are handed to
    _newton_polish, which takes at most _NEWTON_STEPS Newton steps on the
    same rows and stops early once a step after the first does not lower the
    residual (the first may overshoot).  Its result is accepted, and the
    flow ends "converged", only if the renormalized rows pass the grad_tol
    test with an energy at most the flow's current one (with the flow's
    1e-14 relative slack) and each row of one sign in the interior; the
    reported iterations then count the Newton steps too.  A failed linear
    solve, a non-finite value or a result that misses any of these tests
    discards the attempt, and the flow goes on bit for bit as without it; an
    attempt at residual res re-arms the polish at res / _NEWTON_REARM, so a
    flow makes at most about log10(res_1 / grad_tol) + 1 attempts, res_1 the
    residual of its first attempt (at most _NEWTON_SWITCH from a cold
    start).  A non-finite residual raises NumericFault.

    At every detector checkpoint (each 10th iteration) where the mass test
    passes but the sup test does not, the flow tries one dilation move:
    every row dilated to x(s r) (_dilate) and renormalized, with
    s = (_CONC_SUP_FACTOR sup0 / sup)^(2 / (N - 2)) the dilation that carries
    the sup to the detector's bound.  Like a trial step it is written into
    the trial rows, and it is taken, with the bookkeeping of an accepted
    step, only when the moved rows' sup is at most that bound and their
    energy is below the current one; otherwise the flow goes on bit for bit
    as without it.  So the detector fires only on rows the flow has relaxed
    since a move.  The residual of a concentrating row measures no
    convergence.  Converging flows never pass the mass test and never try
    the move.
    """
    if not np.isfinite(lam):
        raise NumericFault(f"coupling must be finite, got {lam}")
    polish_at = _NEWTON_SWITCH if init_pair is None else math.inf
    if init_pair is None:
        init_pair = _initial_pair(a, b, grid, params)
    ops = (assemble_operator(a, grid), assemble_operator(b, grid))
    m = grid.masses
    m_dof = m[1:-1]
    inv_m = 1.0 / m_dof
    lam_m = lam * m_dof
    delta = _CONC_DELTA_FRACTION * grid.radius
    inside = int(np.searchsorted(grid.nodes, delta, side="right"))   # r <= delta
    node, dof = np.empty(m.size), np.empty(m_dof.size)
    normalize = _normalizer(grid)

    # each row x[k] comes with its power row h[k]
    h = (np.empty(m.size), np.empty(m.size))
    x = (normalize(dirichlet_field(init_pair.u, grid), h[0]),
         normalize(dirichlet_field(init_pair.v, grid), h[1]))
    if _one_row(ops, x):
        x, h, ops = x[:1], h[:1], ops[:1]
    sup_max = _CONC_SUP_FACTOR * max(np.max(np.abs(xk)) for xk in x)
    # trial rows swap with x when accepted (as copies their boundary node is 0),
    # and so do their power rows h and face fluxes f; d holds each row's raw
    # gradient
    x_try, h_try = [xk.copy() for xk in x], [np.empty(m.size) for _ in x]
    f, f_try = ([np.zeros(m_dof.size + 1) for _ in x] for _ in range(2))
    d = [np.empty(m_dof.size) for _ in x]

    def total_energy(xs, fs):
        """Energy of the rows xs, leaving each row's face fluxes in fs[k][1:]
        (fs[k][0] is the origin face's, always 0)."""
        g = [float(np.dot(np.multiply(op.c, np.subtract(xk[2:], xk[1:-1], out=dof),
                                      out=fk[1:]), dof))
             for xk, op, fk in zip(xs, ops, fs)]
        p = float(np.dot(m, np.multiply(xs[0], xs[-1], out=node))) if lam else 0.0
        return 0.5 * g[0] + 0.5 * g[-1] - lam * p, g, p

    def gradient(xs, hs, fs, g, p, d):
        """Each row's raw gradient into d, from the face fluxes fs that
        total_energy left for xs; returns the system residual."""
        for k, (hk, fk, op, dk) in enumerate(zip(hs, fs, ops, d)):
            op._flux_difference(fk, dk)
            if lam:
                dk -= np.multiply(lam_m, xs[-1 - k][1:-1], out=dof)
            dk -= np.multiply(hk[1:-1], g[k] - lam * p, out=dof)
        r2 = [np.dot(np.multiply(dk, dk, out=dof), inv_m) for dk in d]
        return np.sqrt(r2[0] + r2[-1])

    e_now, g, p = total_energy(x, f)
    best_e, best = e_now, x
    trace = [best_e]
    tau = params.step
    status = "stalled"                    # unless a test below ends the flow
    last_improve = it = 0

    for it in range(1, params.max_iters + 1):
        res = gradient(x, h, f, g, p, d)
        if not math.isfinite(res):
            raise NumericFault("non-finite residual during descent")
        if res <= params.grad_tol:
            status = "converged"
        elif res <= polish_at:
            polish_at = res / _NEWTON_REARM
            polished = _newton_polish(x, h, ops, lam, grid, normalize, gradient,
                                      total_energy, params.grad_tol,
                                      e_now + 1e-14 * abs(e_now))
            if polished is not None:
                x, e_now, steps = polished
                it += steps
                status = "converged"
        if status == "converged":
            if e_now <= best_e + 1e-12 * abs(best_e):
                best_e, best = e_now, x
            break

        if best is x_try:               # the trial rows would overwrite the best
            best = tuple(xk.copy() for xk in best)
        s = [op._solve(dk) for op, dk in zip(ops, d)]
        accepted = False
        for _ in range(40):
            for t, xk, sk in zip(x_try, x, s):
                np.subtract(xk[1:-1], np.multiply(sk, tau, out=dof), out=t[1:-1])
                t[0] = t[1]
            try:
                e_try, g_t, p_t = total_energy([normalize(t, ht)
                                                for t, ht in zip(x_try, h_try)], f_try)
            except (DegeneratePair, FloatingPointError):
                tau *= 0.5
                continue
            if not np.isfinite(e_try):
                raise NumericFault("non-finite energy during descent")
            if e_try <= e_now + 1e-14 * abs(e_now):
                accepted = True
                break
            tau *= 0.5
        if not accepted:
            status = "stalled"
            break
        x, x_try, h, h_try, f, f_try = x_try, x, h_try, h, f_try, f
        e_now, g, p = e_try, g_t, p_t
        tau = min(tau * 1.3, params.step)

        if e_now < best_e - 1e-14 * abs(best_e):
            best_e, best = e_now, x
            last_improve = it
        trace.append(best_e)

        if it % 10 == 0:
            # x[0] is normalized, so its mass inside delta is h.x over r <= delta
            conc = float(np.dot(h[0][:inside], x[0][:inside]))
            sup = max(np.max(np.abs(xk)) for xk in x)
            if conc > _CONC_MASS:
                if sup > sup_max:
                    status = "concentrating"
                    break
                # the mass has collapsed but the sup lags: a trial dilation
                # that carries the sup to the detector's bound
                if best is x_try:
                    best = tuple(xk.copy() for xk in best)
                s = (sup_max / sup) ** (2.0 / (grid.dimension - 2))
                try:
                    moved = [normalize(t, ht) for t, ht in
                             zip(_dilate(x, s, grid.nodes, x_try), h_try)]
                except (DegeneratePair, FloatingPointError):
                    moved = None
                if (moved is not None
                        and max(np.max(np.abs(t)) for t in moved) <= sup_max):
                    e_try, g_t, p_t = total_energy(moved, f_try)
                    if e_try < e_now:
                        x, x_try, h, h_try, f, f_try = x_try, x, h_try, h, f_try, f
                        e_now, g, p = e_try, g_t, p_t
                        if e_now < best_e - 1e-14 * abs(best_e):
                            best_e, best = e_now, x
                            last_improve = it
                        trace[-1] = best_e
        if it - last_improve > params.stall_window:
            status = "stalled"
            break

    best = FieldPair(u=best[0], v=best[-1].copy())
    if lam > 0.0:
        best = sign_normalize(best)
        best = FieldPair(u=normalize(best.u, node), v=normalize(best.v, node))
    report = energy(best, a, b, lam, grid)
    l1, l2 = lagrange_multipliers(best, a, b, lam, grid)
    res = el_residual(best, l1, l2, a, b, lam, grid)
    return MinimizeResult(
        pair=best,
        q_lambda=report.value,
        multiplier_u=l1,
        multiplier_v=l2,
        el_residual=res,
        concentration=concentration_diagnostic(best.u, delta, grid),
        status=status,
        iterations=it,
        best_trace=np.asarray(trace),
    )


# ---------------------------------------------------------------------------
# coupling sweeps with a shared candidate pool
# ---------------------------------------------------------------------------


def _tangent(flow: MinimizeResult, a: WeightProfile, b: WeightProfile,
             lam: float, grid: RadialGrid):
    """(rows, d rows / d lam) at a converged flow's pair: the distinct rows
    of the pair, as in descend, and the dof derivative of each along the
    branch of discrete Euler-Lagrange solutions through it (see
    _bordered_step; dF_k/dlam = -M x_partner)."""
    ops = (assemble_operator(a, grid), assemble_operator(b, grid))
    x = (flow.pair.u, flow.pair.v)
    mults = (flow.multiplier_u, flow.multiplier_v)
    if _one_row(ops, x):
        x, ops, mults = x[:1], ops[:1], mults[:1]
    m = grid.masses[1:-1]
    rhs0 = [-m * x[-1 - k][1:-1] for k in range(len(x))]
    return x, _bordered_step(x, mults, rhs0, ops, lam, m,
                             critical_exponent(grid.dimension))


def _next_start(flow: MinimizeResult, a: WeightProfile, b: WeightProfile,
                lam: float, new_lam: float, grid: RadialGrid) -> FieldPair:
    """The start of the sweep's flow at new_lam after its flow at lam.

    From a converged pair this is the tangent predictor x + step dx/dlam
    with step = new_lam - lam, halved while the predicted start's energy at
    new_lam is above the pair's own, for _PREDICTOR_TRIES steps in all.  If
    every step is above, if the tangent cannot be computed, or if the flow
    did not converge, it is the pair itself.
    """
    if flow.status != "converged":
        return flow.pair
    try:
        rows, tangent = _tangent(flow, a, b, lam, grid)
        e_warm = energy(flow.pair, a, b, new_lam, grid).value
        step = new_lam - lam
        for _ in range(_PREDICTOR_TRIES):
            start = [xk.copy() for xk in rows]
            for sk, tk in zip(start, tangent):
                sk[1:-1] += step * tk
                sk[0] = sk[1]
            pred = FieldPair(u=start[0], v=start[-1].copy())
            if energy(pred, a, b, new_lam, grid).value <= e_warm:
                return pred
            step *= 0.5
    except (LinAlgError, ValueError, FloatingPointError, DegeneratePair,
            NumericFault):
        pass
    return flow.pair


@dataclass(frozen=True)
class SweepRow:
    lam: float
    result: MinimizeResult


def sweep_minimize(
    lams,
    a: WeightProfile,
    b: WeightProfile,
    grid: RadialGrid,
    params: FlowParams = FlowParams(),
) -> list[SweepRow]:
    """Run the flow for each coupling and cross-evaluate the found pairs.

    The flows run in increasing coupling, as a predictor-corrector
    continuation: after a converged flow the next one starts from a tangent
    step along the branch of minimizers, never above the plain warm start
    (see _next_start), and after any other flow from that flow's pair.
    Every such flow is warm-started, so descend tries Newton from its
    first iteration (the corrector).

    Every pair discovered anywhere in the sweep is an admissible
    candidate at every coupling; the reported value per coupling is the
    minimum over the pool.  With sign-normalized candidates the per-candidate
    energy is affine and nonincreasing in the coupling, so the pooled
    estimate is monotone by construction.

    Only a pair found at another coupling can win a row (a flow's own pair
    re-evaluated differs only by rounding); the row then reports that pair's
    own concentration and the status "pooled".
    """
    lams = [float(x) for x in lams]
    flows: dict[float, MinimizeResult] = {}
    pool = []   # (source flow, grad_a_raw, grad_b_raw, coupling_raw, pair)
    warm = prev = None
    for lam in sorted(set(lams)):
        if prev is not None:
            warm = _next_start(flows[prev], a, b, prev, lam, grid)
        res = flows[lam] = descend(a, b, lam, grid, params, init_pair=warm)
        prev = lam
        pr = sign_normalize(res.pair)
        ga = 0.5 * weighted_gradient_energy(pr.u, a, grid)
        gb = 0.5 * weighted_gradient_energy(pr.v, b, grid)
        c = integrate(pr.u * pr.v, grid)
        pool.append((res, ga, gb, c, pr))

    rows = []
    for lam in lams:
        flow = res = flows[lam]
        val, src, pr = min(((ga + gb - lam * c, src, pr)
                            for src, ga, gb, c, pr in pool if src is not flow),
                           key=lambda cand: cand[0], default=(np.inf, None, None))
        if val < flow.q_lambda:
            l1, l2 = lagrange_multipliers(pr, a, b, lam, grid)
            res = replace(
                flow,
                pair=pr,
                q_lambda=val,
                multiplier_u=l1,
                multiplier_v=l2,
                el_residual=el_residual(pr, l1, l2, a, b, lam, grid),
                concentration=src.concentration,    # of |u|^q, so sign-blind
                status="pooled",
            )
        rows.append(SweepRow(lam=lam, result=res))
    return rows


# ---------------------------------------------------------------------------
# classification against the existence / non-existence case table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExistenceVerdict:
    case_id: str
    verdict: str               # achieved_by_theorem | energy_gap_only |
    #                            no_minimizer_by_theorem | outside_theory
    thresholds_used: dict


_CASES = {(True, True): "quadratic-both", (True, False): "quadratic-first",
          (False, True): "quadratic-second", (False, False): "supercritical-powers"}


def _gap_threshold(dim, k, l, a_k, b_l):
    """(threshold, case name): the coupling above which the
    concentration-test energy certifies a gap below gamma0 * S, and the
    case table's row; (None, None) where the table has no row."""
    if k < 2 or l < 2:
        return None, None
    thr = thresholds(dim, quadratic_part(k, a_k), quadratic_part(l, b_l))
    return thr.gamma_n, _CASES[k == 2, l == 2]


def existence_verdict(
    dim: int,
    k: float,
    l: float,
    a_k: float,
    b_l: float,
    lam: float,
    lam_tilde: float,
    omega_estimate: float | None = None,
) -> ExistenceVerdict:
    """Pure case dispatch of one parameter point against the case table.

    omega_estimate, when given, must be a certified lower bound on the
    quotient infimum (couplings at or below it admit no minimizer); an
    upper estimate here would over-claim non-existence.
    """
    if lam_tilde <= 0.0 or not np.isfinite(lam_tilde):
        raise BadSpectrum(f"first eigenvalue must be positive, got {lam_tilde}")
    gap_thr, name = _gap_threshold(dim, k, l, a_k, b_l)
    used = {
        "lambda_tilde": lam_tilde,
        "gap_threshold": gap_thr,
        "omega": omega_estimate,
    }

    if omega_estimate is not None and lam <= omega_estimate:
        return ExistenceVerdict("nonexistence.coupling-below-omega",
                                "no_minimizer_by_theorem", used)
    if name is None:
        return ExistenceVerdict("outside", "outside_theory", used)
    # at N = 4 only the supercritical case's existence is proved
    if (dim >= 5 or name == "supercritical-powers") and gap_thr < lam < lam_tilde:
        return ExistenceVerdict("existence." + name, "achieved_by_theorem", used)
    if lam > gap_thr:
        return ExistenceVerdict("gap." + name, "energy_gap_only", used)
    return ExistenceVerdict("outside", "outside_theory", used)
