"""Estimation of the coupled infimum by a normalized descent flow.

The flow keeps both components on the unit critical-norm sphere: each
iteration takes a gradient step of the normalized energy simultaneously
in u and v (simultaneous rather than alternating so that a symmetric
configuration with equal weights stays exactly symmetric), renormalizes,
and backtracks on the joint energy.  The raw gradient is preconditioned
with the weighted stiffness operator; an unpreconditioned explicit step
would be CFL-limited by the smallest cell of a graded grid.  When u == v
holds bit for bit, as with equal weights and a symmetric start, the flow
advances that one row and pays for one component per iteration.

Stationary points of the discrete flow solve the discrete coupled system

    -div(a grad u) - lam v = L1 |u|^(q-2) u,
    -div(b grad v) - lam u = L2 |v|^(q-2) v,

with the multipliers L1 = int a|grad u|^2 - lam int uv (and the v-analog),
so the flow's convergence test and the system residual are the same norm.

The flow converges only linearly, so once its residual first falls to
_NEWTON_SWITCH, inside the basin of a minimizer, descend tries once to
finish with Newton's method on this system, bordered by the normalization
constraints; concentrating flows never get that far (see descend).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import LinAlgError, solve_banded

from .constants import thresholds
from .energy import (FieldPair, _face_flux, _gradient_energy, _lq_norm,
                     critical_exponent, dirichlet_field, energy, weighted_gradient_energy)
from .errors import BadSpectrum, DegeneratePair, NumericFault
from .grid import RadialGrid, integrate
from .spectral import TridiagonalOperator, assemble_operator, first_eigenpair
from .weights import WeightProfile

_CONC_DELTA_FRACTION = 0.1      # concentration detector: inside radius R/10
_CONC_MASS = 0.99               # lies this fraction of the critical-norm mass
_CONC_SUP_FACTOR = 1e2          # and the sup norm has grown this much
_NEWTON_SWITCH = 1e-2           # polish once the flow's residual falls to this
_NEWTON_STEPS = 5               # Newton steps the polish may take to reach grad_tol


@dataclass(frozen=True)
class FlowParams:
    step: float = 0.5
    max_iters: int = 3000
    grad_tol: float = 1e-6
    stall_window: int = 250
    init: str = "bubble"            # bubble | eigenfunction | random
    init_eps: float | None = None   # bubble width; default radius^2 / 100
    seed: int = 0

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
    ops: tuple[TridiagonalOperator, TridiagonalOperator] | None = None,
) -> float:
    """Discrete L2 norm of both coupled-system residuals, summed."""
    if not (np.any(pair.u) or np.any(pair.v)):
        return 0.0
    if ops is None:
        ops = (assemble_operator(a, grid), assemble_operator(b, grid))
    op_a, op_b = ops
    q = critical_exponent(grid.dimension)
    m = grid.masses[1:-1]
    u, v = pair.u[1:-1], pair.v[1:-1]
    ru = op_a.apply(u) / m - lam * v - l1 * np.abs(u) ** (q - 2.0) * u
    rv = op_b.apply(v) / m - lam * u - l2 * np.abs(v) ** (q - 2.0) * v
    return float(np.sqrt(np.dot(m, ru * ru) + np.dot(m, rv * rv)))


# ---------------------------------------------------------------------------
# descent flow
# ---------------------------------------------------------------------------


def _normalize(u: np.ndarray, grid: RadialGrid, node: np.ndarray) -> np.ndarray:
    """Divide u in place by its critical norm; `node` is a scratch node row."""
    n = _lq_norm(u, grid, node)
    if n == 0.0 or not np.isfinite(n):
        raise DegeneratePair("flow component collapsed to zero")
    return np.divide(u, n, out=u)


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
             ws: tuple[WeightProfile, WeightProfile], grid: RadialGrid,
             x: tuple[np.ndarray, np.ndarray]) -> bool:
    """True when the flow from x = (u, v) keeps u == v bit for bit: identical
    operators, identical gradient-energy face fluxes and an identical start.
    Compares arrays, not weights: weights with array tables or callables do
    not compare by value, and equal weights are often distinct objects."""
    (op_a, op_b), (a, b), (u, v) = ops, ws, x
    return (np.array_equal(op_a.diag, op_b.diag)
            and np.array_equal(op_a.off, op_b.off)
            and np.array_equal(_face_flux(a, grid), _face_flux(b, grid))
            and np.array_equal(u, v))


def _newton_polish(x, ops, lam, grid, gradient, total_energy, grad_tol, e_max):
    """Newton's method on the bordered discrete Euler-Lagrange system from the
    flow's rows x, which it leaves untouched.

    Unknowns are the R distinct rows, interleaved at R*i + k, and their
    multipliers L_k.  Row k's block is K_k - (q-1) L_k M|x_k|^(q-2), with -lam M
    to its partner row -1 - k (on the diagonal when R = 1), so the matrix is
    banded (R, R); the multipliers are eliminated by an R x R Schur complement
    on the linearized constraints sum m|x_k|^q = 1.  Each step renormalizes
    the rows as the flow does; L_k and the residual come from the flow's own
    gradient code.  Returns (rows, energy, steps) once the rows pass the
    flow's convergence test with energy <= e_max, else None.
    """
    r, m, q = len(x), grid.masses[1:-1], critical_exponent(grid.dimension)
    n, node = m.size, np.empty(grid.nodes.size)
    y = [xk.copy() for xk in x]
    d = [np.empty(n) for _ in x]
    ab = np.zeros((2 * r + 1, r * n))
    rhs = np.zeros((r * n, r + 1))
    try:
        for step in range(_NEWTON_STEPS + 1):
            e, g, p = total_energy(y)
            if gradient(y, g, p, d) <= grad_tol:
                return (y, e, step) if e <= e_max else None
            if step == _NEWTON_STEPS:
                return None
            for k, (yk, op, dk) in enumerate(zip(y, ops, d)):
                yi = yk[1:-1]
                w = m * np.abs(yi) ** (q - 2.0)
                ab[r, k::r] = op.diag - (q - 1.0) * (g[k] - lam * p) * w
                ab[0, r + k::r] = op.off
                ab[2 * r, k:r * (n - 1):r] = op.off
                rhs[k::r, 0] = dk
                rhs[k::r, 1 + k] = w * yi
            if r == 1:
                ab[1] -= lam * m
            else:
                ab[1, 1::2] = ab[3, 0::2] = -lam * m
            sol = solve_banded((r, r), ab, rhs)
            # dx = -J^-1 F + sum_k J^-1 f_k dL_k, with f_j . dx_j = 0 for each row j
            f = [rhs[j::r, 1 + j] for j in range(r)]
            schur = np.array([[f[j] @ sol[j::r, 1 + k] for k in range(r)]
                              for j in range(r)])
            dl = np.linalg.solve(schur, [f[j] @ sol[j::r, 0] for j in range(r)])
            dx = sol[:, 1:] @ dl - sol[:, 0]
            for k, yk in enumerate(y):
                yk[1:-1] += dx[k::r]
                yk[0] = yk[1]
                _normalize(yk, grid, node)
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
    iteration costs per row one banded solve, two power passes and O(n)
    in-place updates in a workspace allocated once per call.

    The first time the system residual falls to _NEWTON_SWITCH (but not to
    grad_tol), the flow's rows are handed to _newton_polish, which takes
    at most _NEWTON_STEPS Newton steps on the same rows.  Its result is
    accepted, and the flow ends "converged", only if the renormalized rows
    pass the grad_tol test with an energy at most the flow's current one
    (with the flow's 1e-14 relative slack); the reported iterations then
    count the Newton steps too.  A failed linear solve, a non-finite value
    or a result that misses either test discards the attempt, and the flow
    goes on bit for bit as without it.  A non-finite residual raises
    NumericFault.
    """
    if not np.isfinite(lam):
        raise NumericFault(f"coupling must be finite, got {lam}")
    if init_pair is None:
        init_pair = _initial_pair(a, b, grid, params)
    op_pair = (assemble_operator(a, grid), assemble_operator(b, grid))
    m = grid.masses
    m_dof = m[1:-1]
    inv_m = 1.0 / m_dof
    lam_m = lam * m_dof
    q = critical_exponent(grid.dimension)
    delta = _CONC_DELTA_FRACTION * grid.radius
    node, dof, dof2, off = (np.empty(m.size), np.empty(m_dof.size),
                            np.empty(m_dof.size), np.empty(m_dof.size - 1))

    x = (_normalize(dirichlet_field(init_pair.u, grid), grid, node),
         _normalize(dirichlet_field(init_pair.v, grid), grid, node))
    ws, ops = (a, b), op_pair
    if _one_row(ops, ws, grid, x):
        x, ws, ops = x[:1], ws[:1], ops[:1]
    flux = [_face_flux(w, grid) for w in ws]
    sup0 = max(np.max(np.abs(xk)) for xk in x)
    # trial rows swap with x when accepted (as copies their boundary node is 0);
    # d holds each row's raw gradient
    x_try, d = [xk.copy() for xk in x], [np.empty(m_dof.size) for _ in x]

    def total_energy(xs):
        g = [_gradient_energy(xk, fk, grid, dof) for xk, fk in zip(xs, flux)]
        p = float(np.dot(m, np.multiply(xs[0], xs[-1], out=node)))
        return 0.5 * g[0] + 0.5 * g[-1] - lam * p, g, p

    def gradient(xs, g, p, d):
        """Each row's raw gradient into d; returns the system residual."""
        for k, (xk, op, dk) in enumerate(zip(xs, ops, d)):
            xi, f = xk[1:-1], dof
            np.abs(xi, out=f)                   # m |x|^(q-2) x
            f **= q - 2.0
            f *= m_dof
            f *= xi
            op._apply(xi, dk, off)
            dk -= np.multiply(lam_m, xs[-1 - k][1:-1], out=dof2)
            dk -= np.multiply(f, g[k] - lam * p, out=f)
        r2 = [np.dot(np.multiply(dk, dk, out=dof), inv_m) for dk in d]
        return np.sqrt(r2[0] + r2[-1])

    e_now, g, p = total_energy(x)
    best_e, best = e_now, tuple(xk.copy() for xk in x)
    trace = [best_e]
    tau = params.step
    status = "stalled"                    # unless a test below ends the flow
    last_improve = it = 0
    polish_tried = False

    for it in range(1, params.max_iters + 1):
        res = gradient(x, g, p, d)
        if not math.isfinite(res):
            raise NumericFault("non-finite residual during descent")
        if res <= params.grad_tol:
            status = "converged"
        elif not polish_tried and res <= _NEWTON_SWITCH:
            polish_tried = True
            polished = _newton_polish(x, ops, lam, grid, gradient, total_energy,
                                      params.grad_tol, e_now + 1e-14 * abs(e_now))
            if polished is not None:
                x, e_now, steps = polished
                it += steps
                status = "converged"
        if status == "converged":
            if e_now <= best_e + 1e-12 * abs(best_e):
                best_e, best = e_now, tuple(xk.copy() for xk in x)
            break

        s = [op._solve(dk) for op, dk in zip(ops, d)]
        accepted = False
        for _ in range(40):
            for t, xk, sk in zip(x_try, x, s):
                np.subtract(xk[1:-1], np.multiply(sk, tau, out=dof), out=t[1:-1])
                t[0] = t[1]
            try:
                e_try, g_t, p_t = total_energy([_normalize(t, grid, node) for t in x_try])
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
        x, x_try, e_now, g, p = x_try, x, e_try, g_t, p_t
        tau = min(tau * 1.3, params.step)

        if e_now < best_e - 1e-14 * abs(best_e):
            best_e, best = e_now, tuple(xk.copy() for xk in x)
            last_improve = it
        trace.append(best_e)

        if it % 10 == 0:
            conc = concentration_diagnostic(x[0], delta, grid)
            sup = max(np.max(np.abs(xk)) for xk in x)
            if conc > _CONC_MASS and sup > _CONC_SUP_FACTOR * sup0:
                status = "concentrating"
                break
        if it - last_improve > params.stall_window:
            status = "stalled"
            break

    best = FieldPair(u=best[0], v=best[-1].copy())
    if lam > 0.0:
        best = sign_normalize(best)
        best = FieldPair(u=_normalize(best.u, grid, node),
                         v=_normalize(best.v, grid, node))
    report = energy(best, a, b, lam, grid)
    l1, l2 = lagrange_multipliers(best, a, b, lam, grid)
    res = el_residual(best, l1, l2, a, b, lam, grid, ops=op_pair)
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


def discrete_sobolev_constant(grid: RadialGrid,
                              params: FlowParams = FlowParams()) -> float:
    """Minimum of the discrete unweighted gradient quotient on this grid.

    Obtained from the decoupled flow (unit weights, zero coupling) with a
    symmetric start, whose energy is exactly the single-field quotient; that
    flow keeps u == v and so advances a single row.
    """
    one = WeightProfile.constant(1.0)
    return descend(one, one, 0.0, grid, params).q_lambda


# ---------------------------------------------------------------------------
# coupling sweeps with a shared candidate pool
# ---------------------------------------------------------------------------


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

    The flows run in increasing coupling, each warm-started from the previous
    pair.  Every pair discovered anywhere in the sweep is an admissible
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
    warm = None
    for lam in sorted(set(lams)):
        res = flows[lam] = descend(a, b, lam, grid, params, init_pair=warm)
        warm = res.pair
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


def _gap_threshold(dim, k, l, a_k, b_l):
    """Coupling above which the concentration-test energy certifies a gap
    below gamma0 * S; None where the case table gives no such threshold."""
    if k > 2 and l > 2:
        return 0.0, "gap.supercritical-powers"
    if k < 2 or l < 2:
        return None, None
    thr = thresholds(dim, a_k if k == 2 else 0.0, b_l if l == 2 else 0.0)
    if k == 2 and l == 2:
        return thr.gamma_n, "gap.quadratic-both"
    if k == 2:
        return thr.gamma_tilde_a, "gap.quadratic-first"
    return thr.gamma_tilde_b, "gap.quadratic-second"


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
    gap_thr, gap_case = _gap_threshold(dim, k, l, a_k, b_l)
    used = {
        "lambda_tilde": lam_tilde,
        "gap_threshold": gap_thr,
        "omega": omega_estimate,
    }

    if omega_estimate is not None and lam <= omega_estimate:
        return ExistenceVerdict("nonexistence.coupling-below-omega",
                                "no_minimizer_by_theorem", used)

    achieved = None
    if k > 2 and l > 2 and 0.0 < lam < lam_tilde:
        achieved = "existence.supercritical-powers"
    elif dim >= 5 and k == 2 and l == 2 and gap_thr < lam < lam_tilde:
        achieved = "existence.quadratic-both"
    elif dim >= 5 and k == 2 and l > 2 and gap_thr < lam < lam_tilde:
        achieved = "existence.quadratic-first"
    elif dim >= 5 and k > 2 and l == 2 and gap_thr < lam < lam_tilde:
        achieved = "existence.quadratic-second"
    if achieved is not None:
        return ExistenceVerdict(achieved, "achieved_by_theorem", used)

    if gap_thr is not None and lam > gap_thr:
        return ExistenceVerdict(gap_case, "energy_gap_only", used)
    return ExistenceVerdict("outside", "outside_theory", used)
