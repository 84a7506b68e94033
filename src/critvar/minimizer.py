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
trial row costs two running sums and one fractional power pass: the
normalization writes m|x|^(q-2) x, from which it takes the critical norm
and which the next gradient and the concentration detector reuse.  One
kernel (_kernel) holds this arithmetic; the flow, the Newton polish, the
sweep's pool and asymptotics.energy_curves take from it the energy terms,
residual and concentration they report, and it allocates the workspace of
a set of rows (their power rows, face fluxes and gradients).  The energy
is formed from the terms in one place, _energy, and a MinimizeResult
reads its energy and multipliers from the terms it keeps.
A flow holds two workspaces, its rows and its trial rows, and reports the
rows it holds when it ends.  It runs with numpy's floating-point errors
ignored, and tests each non-finite value where it is made: an overflow
inside a flow ends in NumericFault or a refused step, never in a warning.

Stationary points of the discrete flow solve the discrete coupled system

    -div(a grad u) - lam v = L1 |u|^(q-2) u,
    -div(b grad v) - lam u = L2 |v|^(q-2) v,

with the multipliers L1 = int a|grad u|^2 - lam int uv (and the v-analog),
so the flow's convergence test and the system residual are the same norm.

The flow converges only linearly, so once its residual falls to
_NEWTON_SWITCH descend hands its rows to a damped Newton's method on this
system, bordered by the normalization constraints, which finishes a
converging flow in a few steps; a failed attempt is retried a decade
further down.  A warm-started flow tries Newton from its first iteration.

At the critical exponent the energy of constant weights is invariant under
the dilation x(r) -> s^((N-2)/2) x(s r), along which a preconditioned step
barely moves, so a flow whose mass collapses onto the center crawls toward
the concentration detector.  Once most of the mass lies near the center
(_MOVE_MASS, a gate of its own below the detector's _CONC_MASS), descend
tries one dilation move that carries the sup norm to the detector's bound
and keeps it only if it lowers the energy; the flow then relaxes the moved
rows until the detector fires (see descend).

A coupling sweep is a continuation by Newton's method alone: each
coupling's flow starts from the previous coupling's pair, if that flow
converged, and tries Newton from its first iteration (see sweep_minimize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np
from numpy.linalg import LinAlgError

from .energy import FieldPair, critical_exponent, dirichlet_field
from .errors import DegeneratePair, NumericFault
from .grid import RadialGrid
from .spectral import TridiagonalOperator, assemble_operator, first_eigenpair
from .weights import WeightProfile

_CONC_DELTA_FRACTION = 0.1      # concentration detector: inside radius R/10
_CONC_MASS = 0.99               # lies this fraction of the critical-norm mass
_CONC_SUP_FACTOR = 1e2          # and the sup norm has grown this much
_MOVE_MASS = 0.6                # the dilation move: inside R/10 lies this fraction
_NEWTON_SWITCH = 1.0            # polish once the flow's residual falls to this
_NEWTON_REARM = 10.0            # after a failed polish at res, try again at res / this
_NEWTON_STEPS = 12              # Newton steps the polish may take to reach grad_tol
_NEWTON_HALVINGS = 3            # retries at 1/2, 1/4, 1/8 of a step that did not help
_NEWTON_DAMPED = 3              # damped steps in a row that end a crawling attempt
_NEWTON_QUADRATIC = 100.0       # a step that cuts the residual this much is quadratic


def solve_banded(l_and_u, ab, b):
    """scipy.linalg.solve_banded for the bands (1, 1) and (2, 2) a Newton
    step has, calling the LAPACK routine it calls (gtsv, and gbsv on ab
    under l zero rows for the pivots' fill-in) without the wrapper's checks;
    imported on first call, as only a Newton step needs it.  A tridiagonal
    ab is overwritten; b is not."""
    from scipy.linalg import lapack
    l, u = l_and_u
    if (l, u) == (1, 1):
        *_, x, info = lapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b, True, True, True)
    else:
        padded = np.zeros((2 * l + u + 1, ab.shape[1]), order="F")
        padded[l:] = ab
        *_, x, info = lapack.dgbsv(l, u, padded, b, overwrite_ab=True)
    if info:
        raise LinAlgError("singular matrix")
    return x


@dataclass(frozen=True)
class FlowParams:
    step: float = 0.5
    max_iters: int = 3000
    grad_tol: float = 1e-6
    stall_window: int = 250
    init: str = "bubble"            # bubble | eigenfunction | random
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.step < math.inf and 0.0 < self.grad_tol < math.inf):
            raise ValueError("step and grad_tol must be positive and finite")
        if self.max_iters < 1 or self.stall_window < 1:
            raise ValueError("max_iters and stall_window must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.init not in ("bubble", "eigenfunction", "random"):
            raise ValueError(f"unknown init {self.init!r}")


def _energy(g_a, g_b, p, lam):
    """E_lam of a normalized pair from its terms, g_a/2 + g_b/2 - lam p: the
    gradient energies g_a and g_b and p = int uv (arrays broadcast)."""
    return 0.5 * g_a + 0.5 * g_b - lam * p


@dataclass(frozen=True)
class MinimizeResult:
    """What a flow or the pool computed for one pair at coupling lam; its
    energy and multipliers are read from the terms at lam."""

    pair: FieldPair            # the rows the flow held at its end, q-normalized
    lam: float
    terms: tuple               # (g_a, g_b, p) of the pair, from the flow's kernel
    el_residual: float
    concentration: float
    status: str                # converged | concentrating | stalled | pooled
    iterations: int            # flow iterations, plus the steps of an accepted polish
    best_trace: np.ndarray = field(repr=False, default=None)

    @property
    def q_lambda(self) -> float:
        return _energy(*self.terms, self.lam)

    @property
    def multiplier_u(self) -> float:
        return self.terms[0] - self.lam * self.terms[2]

    @property
    def multiplier_v(self) -> float:
        return self.terms[1] - self.lam * self.terms[2]


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
        u = bubble_field(BubbleParams(epsilon=grid.radius ** 2 / 100.0,
                                      cutoff_radius=grid.radius / 2.0), grid)
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
    with identical face conductances c (from which the operator derives
    every other array the flow reads) and an identical start.  Compares
    arrays, not weights: constant weights that differ only in an exponent
    they never use assemble to the same c."""
    (op_a, op_b), (u, v) = ops, x
    return np.array_equal(op_a.c, op_b.c) and np.array_equal(u, v)


def _bordered_step(rows, mults, d, kern):
    """One Newton step on the discrete Euler-Lagrange system at the R
    distinct rows, bordered by the normalization constraints: each row's dof
    correction, for d the kernel kern's raw gradient at the rows (see
    _kernel), whose operators, lam, dof masses M and q it reads.

    Unknowns are the rows, interleaved at R*i + k, and their multipliers
    L_k = mults[k].  Row k's block is K_k - (q-1) L_k M|x_k|^(q-2), with -lam M
    to its partner row -1 - k (on the diagonal when R = 1), so the Jacobian
    J is banded (R, R), tridiagonal at R = 1 (see solve_banded).  With
    f_k = M|x_k|^(q-2) x_k the correction solves J dx - sum_k f_k dL_k = -d
    and f_k . dx_k = 0, so dx = sum_k J^-1 f_k dL_k - J^-1 d, the dL_k from
    an R x R Schur complement, which depends on the columns J^-1 f_k only
    through their span.  With X the interleaved rows, J X = K x - lam M
    x_partner - (q-1) L f row by row and d = K x - lam M x_partner - L f, so

        J^-1 d - X = (q-2) sum_k L_k J^-1 f_k,

    which spans with the other rows' columns what J^-1 f_b does, b the row
    of largest |L_k|.  So one right-hand side per row is solved: d, and for
    two rows the other row's f_k.
    """
    ops, lam, m, q = kern.ops, kern.lam, kern.m, kern.q
    r, n = len(rows), m.size
    big = int(np.argmax(np.abs(mults)))
    ab = np.zeros((2 * r + 1, r * n))
    rhs = np.zeros((r * n, r), order="F")          # LAPACK's layout: no copy
    x, f = np.empty(r * n), []
    for k, (xk, lk, op, dk) in enumerate(zip(rows, mults, ops, d)):
        xi = xk[1:-1]
        w = m * np.abs(xi) ** (q - 2.0)
        diag = ab[r, k::r]                      # K's diagonal: c_0, then c_(i-1) + c_i
        diag[0] = op.c[0]
        np.add(op.c[:-1], op.c[1:], out=diag[1:])
        diag -= (q - 1.0) * lk * w
        ab[0, r + k::r] = ab[2 * r, k:r * (n - 1):r] = -op.c[:-1]
        x[k::r] = xi
        rhs[k::r, 0] = dk
        f.append(w * xi)
        if k != big:
            rhs[k::r, 1] = f[k]
    if r == 1:
        ab[1] -= lam * m
    else:
        ab[1, 1::2] = ab[3, 0::2] = -lam * m
    sol = solve_banded((r, r), ab, rhs)
    cols = [sol[:, 0] - x if k == big else sol[:, 1] for k in range(r)]
    schur = np.array([[f[j] @ cols[k][j::r] for k in range(r)] for j in range(r)])
    fd = np.array([f[j] @ sol[j::r, 0] for j in range(r)])
    dl = fd / schur[0] if r == 1 else np.linalg.solve(schur, fd)
    dx = sum(cols[k] * dl[k] for k in range(r)) - sol[:, 0]
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


def _kernel(ops, lam, grid: RadialGrid):
    """The flow's arithmetic on its distinct rows, over the operators ops,
    row k coupled to row -1 - k, at coupling lam.

    rows(xs) allocates the workspace of the rows xs, whose arrays it holds
    as w.x: each row's power row w.h (see _normalizer), face fluxes w.f and
    raw gradient w.d.  energy(w) sets and returns w.e and sets w.g and w.p
    of the normalized rows: g_k = sum_f F_f (dx_k)_f over the face fluxes
    F_f = c_f (dx_k)_f, which it leaves in w.f[k][1:] (w.f[k][0], the origin
    face's, stays 0), p = sum m x_0 x_-1 and E = _energy(g_0, g_-1, p, lam).
    The innermost cell (0, r_1) is skipped: its flux factor r^(N-1)
    vanishes at the order of the rule for radially smooth rows (x'(0) = 0).
    g_k is a sum of squares, not x.Kx: near a smooth minimizer x.Kx cancels
    large terms of opposite sign, which stalls the flow (docs/numerics.md).
    evaluate(w) normalizes the rows in place, leaving their power rows, and
    then sets what energy does.

    gradient(w) writes each row's raw gradient K x_k - lam M x_partner -
    (g_k - lam p) h_k into w.d, K x_k the difference of the fluxes
    (TridiagonalOperator._flux_difference), and sets and returns w.res, the
    system residual, w.d's norm in M^-1.  mass_inside(w) is row 0's
    critical-norm mass h.x over r <= R/10, the detector's.  report(xs)
    evaluates the rows xs in a workspace of their own, normalizing them in
    place, and returns (the terms (g_0, g_-1, p), the residual, row 0's mass
    inside R/10): the record a MinimizeResult keeps, which reads the energy
    and the multipliers g_k - lam p from the terms.
    """
    m, m_dof = grid.masses, grid.masses[1:-1]
    inv_m, lam_m = 1.0 / m_dof, lam * m_dof
    inside = int(np.searchsorted(grid.nodes, _CONC_DELTA_FRACTION * grid.radius,
                                 side="right"))                     # r <= R/10
    node, dof = np.empty(m.size), np.empty(m_dof.size)
    normalize = _normalizer(grid)

    def rows(xs):
        return SimpleNamespace(x=list(xs), h=[np.empty(m.size) for _ in xs],
                               f=[np.zeros(m.size - 1) for _ in xs],
                               d=[np.empty(m_dof.size) for _ in xs])

    def energy(w):
        w.g = [float(np.dot(np.multiply(op.c, np.subtract(xk[2:], xk[1:-1], out=dof),
                                        out=fk[1:]), dof))
               for xk, op, fk in zip(w.x, ops, w.f)]
        w.p = float(np.dot(m, np.multiply(w.x[0], w.x[-1], out=node)))
        w.e = _energy(w.g[0], w.g[-1], w.p, lam)
        return w.e

    def evaluate(w):
        for t, h in zip(w.x, w.h):
            normalize(t, h)
        return energy(w)

    def gradient(w):
        for k, (hk, fk, op, dk) in enumerate(zip(w.h, w.f, ops, w.d)):
            op._flux_difference(fk, dk)
            if lam:
                dk -= np.multiply(lam_m, w.x[-1 - k][1:-1], out=dof)
            dk -= np.multiply(hk[1:-1], w.g[k] - lam * w.p, out=dof)
        r2 = [np.dot(np.multiply(dk, dk, out=dof), inv_m) for dk in w.d]
        w.res = float(np.sqrt(r2[0] + r2[-1]))
        return w.res

    def mass_inside(w):
        return float(np.dot(w.h[0][:inside], w.x[0][:inside]))

    def report(xs):
        w = rows(xs)
        evaluate(w)
        return (w.g[0], w.g[-1], w.p), gradient(w), mass_inside(w)

    return SimpleNamespace(ops=ops, lam=lam, m=m_dof, q=critical_exponent(grid.dimension),
                           normalize=normalize, rows=rows, energy=energy,
                           evaluate=evaluate, gradient=gradient,
                           mass_inside=mass_inside, report=report)


def _dilate(xs, s, nodes, out):
    """Each row x of xs dilated to x(s r), interpolated at the nodes, into
    the rows of out; the origin node takes its neighbour's value, as in the
    flow.  Beyond r = R / s the rows take x(R) = 0."""
    for t, xk in zip(out, xs):
        t[:] = np.interp(s * nodes, nodes, xk)
        t[0] = t[1]
    return out


def _newton_polish(at, kern, grad_tol, e_max):
    """Newton's method on the bordered discrete Euler-Lagrange system (see
    _bordered_step) from the flow's workspace at, which kern has evaluated
    and whose gradient it has taken (see _kernel), and which the polish
    leaves untouched: the first step starts from its rows, raw gradient and
    terms, and later rows go to two workspaces of the polish's own.

    Each step's energy, multipliers L_k and residual come from kern, and
    each step renormalizes the rows with it.
    The first step may raise the residual (Newton overshoots from outside
    its quadratic region); a later one that does not lower it is retried at
    1/2, 1/4, ... of its length (_NEWTON_HALVINGS halvings, no new solve),
    and _NEWTON_DAMPED such damped steps in a row end a crawling attempt.
    Once a step has cut the residual _NEWTON_QUADRATIC-fold, Newton is in
    its quadratic region, where each step cuts it at least as much; a step
    that does not has met the bordered solve's rounding floor, and ends it.
    Returns (w, residual, steps), w an evaluated workspace, once, within
    _NEWTON_STEPS steps, its rows pass the flow's convergence test with
    energy <= e_max and each row of one sign in the interior.  Else returns
    (None, floor, steps), floor the lowest residual if the attempt ended at
    the solve's floor, else inf.
    """
    y, y0 = (kern.rows([xk.copy() for xk in at.x]) for _ in range(2))
    w, last, quadratic, damped = at, math.inf, False, 0

    def advance(dx, t):             # y = the rows y0 advanced by t dx
        for yk, y0k, dxk in zip(y.x, y0.x, dx):
            np.add(y0k[1:-1], t * dxk, out=yk[1:-1])
            yk[0] = yk[1]

    try:
        for step in range(_NEWTON_STEPS + 1):
            for halving in range(_NEWTON_HALVINGS + 1 if step > 1 else step):
                if halving:
                    advance(dx, 0.5 ** halving)
                kern.evaluate(y)
                kern.gradient(y)
                w = y
                if w.res < last:
                    break
            if w.res <= grad_tol:
                # Newton may also land on a critical point whose row changes
                # sign; a minimizer's rows each keep one sign
                if w.e <= e_max and all(np.all(xk[:-1] > 0.0) or np.all(xk[:-1] < 0.0)
                                        for xk in w.x):
                    return w, w.res, step
                break
            if quadratic and w.res * _NEWTON_QUADRATIC > last:
                return None, min(w.res, last), step
            damped = damped + 1 if step > 1 and halving else 0
            if (step == _NEWTON_STEPS or (step > 1 and not w.res < last)
                    or damped == _NEWTON_DAMPED):
                break
            quadratic = quadratic or (step > 0 and w.res * _NEWTON_QUADRATIC <= last)
            last = w.res
            dx = _bordered_step(w.x, [gk - kern.lam * w.p for gk in w.g], w.d, kern)
            y, y0 = y0, y                   # the step starts from these rows
            advance(dx, 1.0)
    except (LinAlgError, ValueError, DegeneratePair):
        pass
    return None, math.inf, step


@np.errstate(all="ignore")          # every non-finite value is tested where it is made
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
    or on the iteration cap, and reports the rows it holds then.  Every
    accepted step or move lowers the energy but for the flow's 1e-14
    relative slack, so these are the lowest-energy rows seen up to that
    slack.  The flow starts from init_pair when one is given, else from
    params.init.

    The flow advances the distinct rows of (u, v): one row when the weights
    assemble to identical arrays and the start has u == v (the flow then
    keeps u == v exactly), two otherwise.  Row k's coupling partner is row
    -1 - k, so both cases run the same arithmetic.  An iteration costs per
    row two running sums, one fractional power pass and O(n) in-place
    updates in two workspaces that the kernel allocates once per call (see
    _kernel), the held rows and the trial rows, which swap when a trial
    step or move is accepted: the normalization of a trial row t writes
    h = m|t|^(q-2) t (see _normalizer), which the next gradient and the
    concentration detector read, and the energy leaves the face fluxes from
    which the gradient reads K x.  The reported pair (sign-normalized at
    lam >= 0) is renormalized, and the kernel's report on it gives the
    result's terms (g_a, g_b, p), residual and concentration; its energy
    and multipliers are read from those terms at lam.

    When the system residual falls to _NEWTON_SWITCH (but not to grad_tol),
    or at the first iteration when init_pair is given (a warm start, which
    may already lie in Newton's basin), the flow's evaluated workspace is
    handed to _newton_polish.  Its result is accepted, and the flow ends
    "converged" on the polished rows, only if the renormalized rows pass
    the grad_tol test with an energy at most the flow's current one (with
    the flow's 1e-14 relative slack) and each row of one sign in the
    interior; the reported iterations then count its Newton steps, but not
    its halvings.  A failed attempt leaves the
    flow bit for bit as without it and re-arms the polish a decade
    (_NEWTON_REARM) below its residual, or below the bordered solve's floor
    if the attempt met it, so a flow makes at most about
    log10(res_1 / grad_tol) + 1 attempts, res_1 the residual of its first
    (at most _NEWTON_SWITCH from a cold start).

    The flow runs with numpy's floating-point errors ignored, and each
    non-finite value is tested where it is made: a trial row whose
    normalization collapses or overflows (DegeneratePair) halves the step,
    a move whose rows do so, or whose energy is not below the current one,
    is dropped, and a trial step of non-finite energy or a non-finite
    residual raises NumericFault.

    At every detector checkpoint (each 10th iteration) where the mass inside
    R/10 exceeds the move's gate but the sup test does not pass, the flow
    tries one dilation move: every row dilated to x(s r) (_dilate) and
    renormalized, with s = (_CONC_SUP_FACTOR sup0 / sup)^(2 / (N - 2)) the
    dilation that carries the sup to the detector's bound.  Like a trial
    step it is written into the trial rows, and it is taken, with the
    bookkeeping of an accepted step, only when the moved rows' sup is at
    most that bound and their energy is below the current one; otherwise
    the flow goes on bit for bit as without it.  So the detector fires only
    on rows the flow has relaxed since a move, and it still needs _CONC_MASS
    of the mass inside R/10.  The residual of a concentrating row measures
    no convergence.  The gate starts at _MOVE_MASS, and each try raises it
    halfway from the mass it saw to all of it, so a converging flow that
    passes the gate tries few moves; docs/numerics.md gives the margins of
    the gate on the benchmark's and the tests' flows.
    """
    if not np.isfinite(lam):
        raise NumericFault(f"coupling must be finite, got {lam}")
    polish_at = _NEWTON_SWITCH if init_pair is None else math.inf
    if init_pair is None:
        init_pair = _initial_pair(a, b, grid, params)
    ops = (assemble_operator(a, grid), assemble_operator(b, grid))
    x = (dirichlet_field(init_pair.u, grid), dirichlet_field(init_pair.v, grid))
    if _one_row(ops, x):
        x, ops = x[:1], ops[:1]
    kern = _kernel(ops, lam, grid)
    # the held rows, and the trial rows (as copies their boundary node is 0)
    cur, trial = kern.rows(x), kern.rows([xk.copy() for xk in x])
    best_e = kern.evaluate(cur)
    sup_max = _CONC_SUP_FACTOR * max(np.max(np.abs(xk)) for xk in cur.x)
    dof = np.empty(grid.nodes.size - 2)
    trace = [best_e]
    tau = params.step
    status = "stalled"                    # unless a test below ends the flow
    last_improve = it = 0
    move_at = _MOVE_MASS

    for it in range(1, params.max_iters + 1):
        res = kern.gradient(cur)
        if not math.isfinite(res):
            raise NumericFault("non-finite residual during descent")
        if res <= params.grad_tol:
            status = "converged"
            break
        if res <= polish_at:
            polished, value, steps = _newton_polish(cur, kern, params.grad_tol,
                                                    cur.e + 1e-14 * abs(cur.e))
            if polished is not None:
                cur, status = polished, "converged"
                it += steps
                break
            polish_at = min(res, value) / _NEWTON_REARM

        s = [op._solve(dk) for op, dk in zip(ops, cur.d)]
        for _ in range(40):
            for t, xk, sk in zip(trial.x, cur.x, s):
                np.subtract(xk[1:-1], np.multiply(sk, tau, out=dof), out=t[1:-1])
                t[0] = t[1]
            try:
                e_try = kern.evaluate(trial)
            except DegeneratePair:
                tau *= 0.5
                continue
            if not math.isfinite(e_try):
                raise NumericFault("non-finite energy during descent")
            if e_try <= cur.e + 1e-14 * abs(cur.e):
                break
            tau *= 0.5
        else:
            status = "stalled"
            break
        cur, trial = trial, cur
        tau = min(tau * 1.3, params.step)

        checkpoint = it % 10 == 0
        if checkpoint:
            sup = max(np.max(np.abs(xk)) for xk in cur.x)
            mass = kern.mass_inside(cur)
            if mass > move_at and sup <= sup_max:
                # the mass is collapsing but the sup lags: a trial dilation
                # that carries the sup to the detector's bound; the next try
                # waits for half the mass still outside R/10 to come in
                move_at = 0.5 * (1.0 + mass)
                s = (sup_max / sup) ** (2.0 / (grid.dimension - 2))
                try:
                    _dilate(cur.x, s, grid.nodes, trial.x)
                    moved = (kern.evaluate(trial) < cur.e
                             and max(np.max(np.abs(t)) for t in trial.x) <= sup_max)
                except DegeneratePair:
                    moved = False
                if moved:
                    cur, trial = trial, cur
        if cur.e < best_e - 1e-14 * abs(best_e):
            best_e, last_improve = cur.e, it
        trace.append(best_e)
        # sup and mass are of the rows before any move, which needs sup <= sup_max
        if checkpoint and mass > _CONC_MASS and sup > sup_max:
            status = "concentrating"
            break
        if it - last_improve > params.stall_window:
            status = "stalled"
            break

    rows = [np.abs(xk) for xk in cur.x] if lam >= 0.0 else list(cur.x)   # (|u|, |v|)
    terms, res, conc = kern.report(rows)
    return MinimizeResult(pair=FieldPair(u=rows[0], v=rows[-1].copy()), lam=lam,
                          terms=terms, el_residual=res, concentration=conc,
                          status=status, iterations=it, best_trace=np.asarray(trace))


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

    The flows run in increasing coupling, as a continuation: each flow
    after the first starts from the pair the flow before it reports, if
    that flow converged (so descend tries Newton from its first iteration),
    and from params.init otherwise.  A coupling below 0 raises ValueError:
    the pool's candidates (|u|, |v|) are minimal only at lam >= 0, and
    Q(-lam) = Q(lam).

    Every pair discovered anywhere in the sweep is an admissible
    candidate at every coupling; the reported value per coupling is the
    minimum over the pool.  Each flow reports its sign-normalized pair with
    its terms (g_a, g_b, p) (see descend), so a candidate's energy
    _energy(g_a, g_b, p, lam) is affine and nonincreasing in the coupling, and
    the pooled estimate is monotone up to rounding: the pool ranks
    candidates by those terms, and a winning row reports the terms and
    residual the flow's kernel gives its pair at the row's coupling, from
    which its energy and multipliers are read.

    Only a pair found at another coupling can win a row (a flow's own pair
    re-evaluated differs only by rounding); the row then reports that pair's
    own concentration and the status "pooled".
    """
    lams = [float(x) for x in lams]
    if any(lam < 0.0 for lam in lams):
        raise ValueError(f"couplings must be nonnegative, got {tuple(lams)}: "
                         "Q(-lam) = Q(lam), as E_-lam(u, -v) = E_lam(u, v)")
    ops = (assemble_operator(a, grid), assemble_operator(b, grid))
    flows: dict[float, MinimizeResult] = {}
    warm = None
    for lam in sorted(set(lams)):
        res = flows[lam] = descend(a, b, lam, grid, params, init_pair=warm)
        warm = res.pair if res.status == "converged" else None

    rows = []
    for lam in lams:
        flow = res = flows[lam]
        val, src = min(((_energy(*f.terms, lam), f)
                        for f in flows.values() if f is not flow),
                       key=lambda cand: cand[0], default=(np.inf, None))
        if val < flow.q_lambda:
            pr = src.pair
            terms, el, _ = _kernel(ops, lam, grid).report([pr.u.copy(), pr.v.copy()])
            res = replace(flow, pair=pr, terms=terms, el_residual=el,
                          concentration=src.concentration,  # of |u|^q, so sign-blind
                          status="pooled")
        rows.append(SweepRow(lam=lam, result=res))
    return rows
