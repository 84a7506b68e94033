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
from .energy import _pair_terms
from .errors import (FitFailure, NumericFault, OutsideTable,
                     UnderResolvedBubble)
from .grid import RadialGrid
from .weights import WeightProfile


@dataclass(frozen=True)
class BubbleParams:
    """Concentration scale eps and support radius of the cutoff."""

    epsilon: float
    cutoff_radius: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.cutoff_radius <= 0.0:
            raise ValueError("cutoff_radius must be positive")

    def profile(self, r, dim: int):
        """The uncut profile eps^((N-2)/4) / (eps + r^2)^((N-2)/2)."""
        r = np.asarray(r, dtype=float)
        p = (dim - 2) / 2.0
        return self.epsilon ** (p / 2.0) / (self.epsilon + r * r) ** p

    def cutoff(self, r):
        """Quintic smoothstep: 1 on [0, c/2], 0 on [c, R], C^2 in between."""
        r = np.asarray(r, dtype=float)
        c = self.cutoff_radius
        t = np.clip((r - 0.5 * c) / (0.5 * c), 0.0, 1.0)
        return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


def bubble_field(params: BubbleParams, grid: RadialGrid,
                 zeta: np.ndarray | None = None) -> np.ndarray:
    """Nodal samples of the cutoff concentration profile, Dirichlet at R;
    zeta, if given, is params.cutoff(grid.nodes), which a ladder shares."""
    if params.cutoff_radius >= grid.radius:
        raise ValueError("cutoff must lie strictly inside the domain")
    core = math.sqrt(params.epsilon)
    if int(np.count_nonzero(grid.nodes < core)) < 8:
        raise UnderResolvedBubble(
            f"fewer than 8 nodes inside r < sqrt(eps) = {core:.3e}"
        )
    if zeta is None:
        zeta = params.cutoff(grid.nodes)
    u = zeta * params.profile(grid.nodes, grid.dimension)
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
    [8 * innermost spacing, cutoff / 8]: resolved but deep in the
    asymptotic regime.  Raises UnderResolvedBubble when the grid leaves
    fewer rungs than a fit takes."""
    floor = (8.0 * grid.spacings[0]) ** 2
    ladder = []
    eps = (cutoff_radius / 8.0) ** 2
    while eps >= floor:
        ladder.append(eps)
        eps /= 2.0
    if len(ladder) < _MIN_CURVE_POINTS:
        raise UnderResolvedBubble(
            f"grid too coarse for an eps-ladder: {len(ladder)} admissible eps, "
            f"a fit needs {_MIN_CURVE_POINTS}")
    return ladder


def energy_curves(lams, a: WeightProfile, b: WeightProfile, eps_list,
                  grid: RadialGrid, cutoff_radius: float | None = None
                  ) -> np.ndarray:
    """Normalized coupled energy of the symmetric concentration pair, as
    an array of shape (len(lams), len(eps_list)): row i is the curve of
    coupling lams[i] along eps_list, which must be positive and
    decreasing.  The coupling enters only through the affine term
    -lam int uv / (|u|_q |v|_q), so each eps's field, norms, gradient
    energies and int uv are computed once and shared by all couplings, and
    the cutoff zeta, the same at every eps, is sampled once per call;
    every entry equals the one-shot `energy(...).value` of its pair."""
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(e <= 0.0 for e in eps_list):
        raise ValueError("eps_list must be positive")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be decreasing")
    if cutoff_radius is None:
        cutoff_radius = 0.9 * grid.radius
    params = [BubbleParams(epsilon=eps, cutoff_radius=cutoff_radius) for eps in eps_list]
    zeta = params[0].cutoff(grid.nodes)
    bubbles = (bubble_field(p, grid, zeta) for p in params)
    grad_a, grad_b, uv, nu, nv = np.array(
        [_pair_terms(u, u, a, b, grid) for u in bubbles]).T
    lams = np.asarray(lams, dtype=float)
    values = grad_a + grad_b - np.multiply.outer(lams, uv) / (nu * nv)
    if not np.all(np.isfinite(values)):
        raise NumericFault("non-finite energy")
    return values


# ---------------------------------------------------------------------------
# regime dispatch and least-squares extraction
# ---------------------------------------------------------------------------

SCALE_EPS = "eps"
SCALE_EPS_LOG = "eps_log_eps"
SCALE_EPS_POW = "eps_pow"


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
    exponents sub-quadratic in dimension 4, are outside the table.
    """
    dim, k, l = case.dim, case.k, case.l
    const = bubble_constants(dim)
    if case.gap is not None:                    # both exponents >= 2
        kl = f"k{'=' if k == 2 else '>'}2,l{'=' if l == 2 else '>'}2"
        if dim >= 5:
            return ExpansionPrediction(scale=SCALE_EPS, power=1.0,
                                       coeff=-(lam - case.gap) * const.k3 / const.k2,
                                       regime="dim>=5," + kl)
        # dimension 4: the L2 mass of the profile carries a logarithm
        return ExpansionPrediction(scale=SCALE_EPS_LOG, power=1.0,
                                   coeff=-(lam - case.gap) * const.sigma / const.k2,
                                   regime="dim=4," + kl)
    if dim >= 5:
        raise OutsideTable(f"no expansion row for N = {dim} with exponent below 2")
    if k < 2 and l < 2:
        raise OutsideTable("no expansion row for N = 4 with both exponents below 2")
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
    ss_res = np.sum((rows - (design @ coefs).T) ** 2, axis=1)
    ss_tot = np.sum((rows - np.mean(rows, axis=1, keepdims=True)) ** 2, axis=1)
    r2 = [1.0 if tot == 0.0 else float(max(0.0, min(1.0, 1.0 - res / tot)))
          for res, tot in zip(ss_res, ss_tot)]
    fits = [ExpansionFit(leading_coeff=float(c[1]), intercept=float(c[0]), r_squared=r)
            for c, r in zip(coefs.T, r2)]
    return fits if vals.ndim == 2 else fits[0]
