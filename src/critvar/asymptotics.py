"""Concentration-family energy curves and their leading-order fits.

The test family is the cutoff optimal concentration profile

    u_eps(r) = zeta(r) * eps^((N-2)/4) / (eps + r^2)^((N-2)/2),

used for both components of the pair.  As eps -> 0 the normalized energy
approaches gamma0 * S from a direction governed by the weight exponents:
the correction is of order eps for N >= 5, of order eps|log eps| for
N = 4, and of order eps^(k/2) when a sub-quadratic power dominates.  This
module evaluates the curves of many couplings as one table, dispatches
the (dimension, exponent) regime to its predicted scale and coefficient,
and extracts each curve's observed coefficient by linear least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import Case, bubble_constants, correction_constant
from .errors import FitFailure, NumericFault, UnderResolvedBubble
from .grid import RadialGrid
from .minimizer import _energy, _kernel
from .spectral import assemble_operator
from .weights import WeightProfile


@dataclass(frozen=True)
class BubbleParams:
    """Concentration scale eps and support radius of the cutoff."""

    epsilon: float
    cutoff_radius: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 < self.cutoff_radius < math.inf:
            raise ValueError("cutoff_radius must be positive and finite")

    def profile(self, r, dim: int):
        """The uncut profile eps^((N-2)/4) / (eps + r^2)^((N-2)/2), in a new
        array."""
        r = np.asarray(r, dtype=float)
        p = (dim - 2) / 2.0
        s = r * r
        s += self.epsilon
        if p != 1.0:                            # x ** 1.0 == x: skip the pass
            s **= p
        return np.divide(self.epsilon ** (p / 2.0), s, out=s)

    def cutoff(self, r):
        """Quintic smoothstep: 1 on [0, c/2], 0 on [c, R], C^2 in between."""
        r = np.asarray(r, dtype=float)
        c = self.cutoff_radius
        t = np.clip((r - 0.5 * c) / (0.5 * c), 0.0, 1.0)
        return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


def _resolved(grid: RadialGrid, eps: float) -> bool:
    """Whether at least 8 nodes lie inside r < sqrt(eps)."""
    return grid.nodes[7] < math.sqrt(eps)


def _check_bubbles(grid: RadialGrid, cutoff_radius: float, eps_list) -> None:
    """Raise unless the cutoff lies inside the domain and, at each eps in
    turn, the bubble is _resolved."""
    if cutoff_radius >= grid.radius:
        raise ValueError("cutoff must lie strictly inside the domain")
    for eps in eps_list:
        if not _resolved(grid, eps):
            raise UnderResolvedBubble(
                f"fewer than 8 nodes inside r < sqrt(eps) = {math.sqrt(eps):.3e}")


def bubble_field(params: BubbleParams, grid: RadialGrid) -> np.ndarray:
    """Nodal samples of the cutoff concentration profile, Dirichlet at R."""
    _check_bubbles(grid, params.cutoff_radius, [params.epsilon])
    u = params.cutoff(grid.nodes) * params.profile(grid.nodes, grid.dimension)
    u[-1] = 0.0
    return u


# ---------------------------------------------------------------------------
# energy curves along an eps-ladder
# ---------------------------------------------------------------------------


# fewest ladder rungs a fit of the expansion takes: its four regressors
# and at least one degree of freedom
_MIN_CURVE_POINTS = 5


def default_eps_ladder(grid: RadialGrid, cutoff_radius: float) -> list[float]:
    """Geometric ladder (ratio 2, decreasing) with sqrt(eps) confined to
    [8 * innermost spacing, cutoff / 8], deep in the asymptotic regime; it
    stops sooner at a rung that bubble_field refuses (_resolved), as it
    does on a coarse geometric grid.  Raises UnderResolvedBubble when the
    grid leaves fewer rungs than a fit takes."""
    floor = (8.0 * grid.spacings[0]) ** 2
    ladder = []
    eps = (cutoff_radius / 8.0) ** 2
    while eps >= floor and _resolved(grid, eps):
        ladder.append(eps)
        eps /= 2.0
    if len(ladder) < _MIN_CURVE_POINTS:
        raise UnderResolvedBubble(
            f"grid too coarse for an eps-ladder: {len(ladder)} admissible eps, "
            f"a fit needs {_MIN_CURVE_POINTS}")
    return ladder


def energy_curves(lams, a: WeightProfile, b: WeightProfile, eps_list,
                  grid: RadialGrid, cutoff_radius: float) -> np.ndarray:
    """Normalized coupled energy of the symmetric concentration pair, as
    an array of shape (len(lams), len(eps_list)): row i is the curve of
    coupling lams[i] along eps_list, which must be positive, finite and
    decreasing.  Each entry is the energy of the pair (u, u),
    u = bubble_field(BubbleParams(eps, cutoff_radius), grid), as the flow's
    kernel (minimizer._kernel) evaluates it: the coupling enters only
    through the affine term -lam p, so one normalization and one energy
    call per eps give the terms (g_a, g_b, p) of every coupling.  The
    cutoff zeta is sampled once per call, and a rung that bubble_field
    refuses raises as it does."""
    eps_list = [float(e) for e in eps_list]
    if not eps_list or not all(0.0 < e < math.inf for e in eps_list):
        raise ValueError("eps_list must be positive and finite")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be decreasing")
    r = grid.nodes
    zeta = BubbleParams(eps_list[0], cutoff_radius).cutoff(r)
    _check_bubbles(grid, cutoff_radius, eps_list)
    kern = _kernel((assemble_operator(a, grid), assemble_operator(b, grid)), 1.0, grid)
    w = kern.rows([np.empty(r.size)] * 2)       # each rung's field, as both rows
    terms = np.empty((3, len(eps_list)))        # g_a, g_b, p of each rung
    for j, eps in enumerate(eps_list):
        u = np.multiply(BubbleParams(eps, cutoff_radius).profile(r, grid.dimension),
                        zeta, out=w.x[0])       # the field bubble_field builds
        u[-1] = 0.0
        kern.normalize(u, w.h[0])
        kern.energy(w)
        (terms[0, j], terms[1, j]), terms[2, j] = w.g, w.p
    values = _energy(*terms, np.asarray(lams, dtype=float)[:, None])
    if not np.all(np.isfinite(values)):
        raise NumericFault("non-finite energy")
    return values


# ---------------------------------------------------------------------------
# regime dispatch and least-squares extraction
# ---------------------------------------------------------------------------

SCALE_EPS = "eps"
SCALE_EPS_LOG = "eps_log_eps"
SCALE_EPS_POW = "eps_pow"
SCALE_OUTSIDE = "outside_table"


@dataclass(frozen=True)
class ExpansionPrediction:
    scale: str               # one of the SCALE_* labels
    power: float             # exponent of eps in the scale variable
    coeff: float
    regime: str


def expansion_prediction(case: Case, lam: float) -> ExpansionPrediction:
    """Predicted correction scale and signed coefficient of the case
    table's row at coupling lam.

    Regimes with a sub-quadratic exponent in dimension >= 5, or with both
    exponents sub-quadratic in dimension 4, are outside the table: their
    prediction has scale SCALE_OUTSIDE, nan power and coefficient, and
    says why in its regime.
    """
    dim, k, l = case.dim, case.k, case.l
    const = bubble_constants(dim)
    if case.name is not None:                   # both exponents >= 2
        kl = f"k{'=' if k == 2 else '>'}2,l{'=' if l == 2 else '>'}2"
        if dim >= 5:
            return ExpansionPrediction(scale=SCALE_EPS, power=1.0,
                                       coeff=-(lam - case.gap) * const.k3 / const.k2,
                                       regime="dim>=5," + kl)
        # dimension 4: the L2 mass of the profile carries a logarithm
        return ExpansionPrediction(scale=SCALE_EPS_LOG, power=1.0,
                                   coeff=-(lam - case.gap) * const.sigma / const.k2,
                                   regime="dim=4," + kl)
    if dim >= 5 or (k < 2 and l < 2):
        which = f"N = {dim} with exponent" if dim >= 5 else "N = 4 with both exponents"
        return ExpansionPrediction(scale=SCALE_OUTSIDE, power=math.nan, coeff=math.nan,
                                   regime=f"no expansion row for {which} below 2")
    # one sub-quadratic exponent dominates with scale eps^(power/2); the
    # coefficient row is used for scale detection only
    p, coeff_w = (k, case.a_k) if k < 2 else (l, case.b_l)
    c_p = correction_constant(4, coeff_w, p)
    return ExpansionPrediction(
        scale=SCALE_EPS_POW, power=p / 2.0, coeff=c_p / const.k2,
        regime=f"dim=4,subquadratic-power-{p}",
    )


@dataclass(frozen=True)
class ExpansionFit:
    leading_coeff: float
    intercept: float          # estimate of the flat level gamma0 * S
    r_squared: float


def scale_variable(eps: np.ndarray, scale: str, power: float = 1.0) -> np.ndarray:
    eps = np.asarray(eps, dtype=float)
    if scale == SCALE_EPS:
        return eps
    if scale == SCALE_EPS_LOG:
        return eps * np.abs(np.log(eps))
    if scale == SCALE_EPS_POW:
        return eps ** power
    raise ValueError(f"unknown scale {scale!r}")


def fit_expansion(
    eps,
    values,
    scale: str,
    power: float = 1.0,
) -> ExpansionFit | list[ExpansionFit]:
    """Least squares of E = intercept + coeff * x through energy curves at
    the ladder eps, with x the chosen scale variable of eps: one curve (a
    row of `energy_curves`) gives one fit, and a 2-D table a list of one
    fit per row, all from one solve, as every row shares the design matrix.

    The neglected remainder starts at relative order sqrt(eps) with
    cutoff-dependent constants much larger than the leading coefficient,
    so two nuisance regressors (x^(3/2) and x^2) absorb the curvature;
    only the intercept and the coefficient on x are reported.
    """
    eps = np.asarray(eps, dtype=float)
    vals = np.asarray(values, dtype=float)
    if eps.size < _MIN_CURVE_POINTS:
        raise FitFailure(
            f"need at least {_MIN_CURVE_POINTS} curve points, got {eps.size}")
    x = scale_variable(eps, scale, power)
    if np.ptp(x) == 0.0:
        raise FitFailure("degenerate design matrix: constant scale variable")
    design = np.column_stack((np.ones_like(x), x, x ** 1.5, x ** 2))
    rows = np.atleast_2d(vals)                      # one curve per row
    coefs, _, rank, _ = np.linalg.lstsq(design, rows.T, rcond=None)
    if rank < design.shape[1]:
        raise FitFailure("degenerate design matrix")
    # each row scaled by a power of two near its largest |value|, exactly,
    # so that its sums of squares cannot overflow
    scale = -np.frexp(np.max(np.abs(rows), axis=1, keepdims=True))[1]
    scaled = np.ldexp(rows, scale)
    ss_res = np.sum((scaled - np.ldexp((design @ coefs).T, scale)) ** 2, axis=1)
    ss_tot = np.sum((scaled - np.mean(scaled, axis=1, keepdims=True)) ** 2, axis=1)
    r2 = [1.0 if tot == 0.0 else float(max(0.0, min(1.0, 1.0 - res / tot)))
          for res, tot in zip(ss_res, ss_tot)]
    fits = [ExpansionFit(leading_coeff=float(c[1]), intercept=float(c[0]), r_squared=r)
            for c, r in zip(coefs.T, r2)]
    return fits if vals.ndim == 2 else fits[0]
