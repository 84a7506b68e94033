"""Concentration-family energy curves and their leading-order fits.

The test family is the cutoff optimal concentration profile

    u_eps(r) = zeta(r) * eps^((N-2)/4) / (eps + r^2)^((N-2)/2),

used for both components of the pair.  As eps -> 0 the normalized energy
approaches gamma0 * S from a direction governed by the weight exponents:
the correction is of order eps for N >= 5, of order eps|log eps| for
N = 4, and of order eps^(k/2) when a sub-quadratic power dominates.  This
module evaluates the curve, dispatches the (dimension, exponent) regime
to its predicted scale and coefficient, and extracts the observed
coefficient by linear least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (bubble_constants, correction_constant, quadratic_part,
                        thresholds)
from .energy import (EnergyReport, _energy_report, _pair_terms,
                     critical_exponent)
from .errors import FitFailure, OutsideTable, UnderResolvedBubble
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


def bubble_field(params: BubbleParams, grid: RadialGrid) -> np.ndarray:
    """Nodal samples of the cutoff concentration profile, Dirichlet at R."""
    if params.cutoff_radius >= grid.radius:
        raise ValueError("cutoff must lie strictly inside the domain")
    core = math.sqrt(params.epsilon)
    if int(np.count_nonzero(grid.nodes < core)) < 8:
        raise UnderResolvedBubble(
            f"fewer than 8 nodes inside r < sqrt(eps) = {core:.3e}"
        )
    u = params.cutoff(grid.nodes) * params.profile(grid.nodes, grid.dimension)
    u[-1] = 0.0
    return u


def blowup_rescale(u: np.ndarray, eps: float, grid: RadialGrid):
    """Zoom in by 1/eps: returns (dilated grid, w) with
    u(r) = eps^(-(N-2)/2) * w(r / eps).

    The critical norm is preserved exactly, including by the discrete
    quadrature (masses scale by eps^-N, |w|^q by eps^N).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    u = grid.check_shape(u)
    nodes = grid.nodes / eps
    dilated = RadialGrid(
        dimension=grid.dimension,
        radius=float(nodes[-1]),
        nodes=nodes,
        quad_weights=grid.quad_weights / eps,
        surface_factor=grid.surface_factor,
        grading=grid.grading,
        grading_ratio=grid.grading_ratio,
    )
    w = eps ** ((grid.dimension - 2) / 2.0) * u
    return dilated, w


# ---------------------------------------------------------------------------
# energy curves along an eps-ladder
# ---------------------------------------------------------------------------


def default_eps_ladder(grid: RadialGrid, cutoff_radius: float) -> list[float]:
    """Geometric ladder (ratio 2, decreasing) with sqrt(eps) confined to
    [8 * innermost spacing, cutoff / 8]: resolved but deep in the
    asymptotic regime."""
    top = (cutoff_radius / 8.0) ** 2
    floor = (8.0 * grid.spacings[0]) ** 2
    if top <= floor:
        raise UnderResolvedBubble("grid too coarse for any admissible eps")
    ladder = []
    eps = top
    while eps >= floor:
        ladder.append(eps)
        eps /= 2.0
    return ladder


def energy_curves(lams, a: WeightProfile, b: WeightProfile, eps_list,
                  grid: RadialGrid, cutoff_radius: float | None = None
                  ) -> list[list[tuple[float, EnergyReport]]]:
    """Normalized coupled energy of the symmetric concentration pair: one
    (eps, report) curve per coupling in lams, in order.  eps_list must be
    positive and decreasing.  The coupling enters only through the affine
    term -lam int uv / (|u|_q |v|_q), so each eps's field, norms, gradient
    energies and int uv are computed once and shared by all couplings."""
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(e <= 0.0 for e in eps_list):
        raise ValueError("eps_list must be positive")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be decreasing")
    if cutoff_radius is None:
        cutoff_radius = 0.9 * grid.radius
    q = critical_exponent(grid.dimension)
    terms = []
    for eps in eps_list:
        u = bubble_field(BubbleParams(epsilon=eps, cutoff_radius=cutoff_radius), grid)
        terms.append((eps, _pair_terms(u, u, a, b, grid)))
    return [[(eps, _energy_report(t, lam, q)) for eps, t in terms] for lam in lams]


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
    coeff: float | None      # None when only the scale is predicted
    regime: str


def expansion_prediction(
    dim: int,
    k: float,
    l: float,
    a_k: float,
    b_l: float,
    lam: float,
) -> ExpansionPrediction:
    """Predicted correction scale and signed coefficient per regime.

    Regimes with a sub-quadratic exponent in dimension >= 5, or with both
    exponents sub-quadratic in dimension 4, are outside the table.
    """
    const = bubble_constants(dim)
    if k >= 2 and l >= 2:
        shift = thresholds(dim, quadratic_part(k, a_k), quadratic_part(l, b_l)).gamma_n
        kl = f"k{'=' if k == 2 else '>'}2,l{'=' if l == 2 else '>'}2"
        if dim >= 5:
            return ExpansionPrediction(scale=SCALE_EPS, power=1.0,
                                       coeff=-(lam - shift) * const.k3 / const.k2,
                                       regime="dim>=5," + kl)
        # dimension 4: the L2 mass of the profile carries a logarithm
        return ExpansionPrediction(scale=SCALE_EPS_LOG, power=1.0,
                                   coeff=-(lam - shift) * const.sigma / const.k2,
                                   regime="dim=4," + kl)
    if dim >= 5:
        raise OutsideTable(f"no expansion row for N = {dim} with exponent below 2")
    if k < 2 and l < 2:
        raise OutsideTable("no expansion row for N = 4 with both exponents below 2")
    # one sub-quadratic exponent dominates with scale eps^(power/2); the
    # coefficient row is used for scale detection only
    p, coeff_w = (k, a_k) if k < 2 else (l, b_l)
    c_p = correction_constant(4, coeff_w, p)
    return ExpansionPrediction(
        scale=SCALE_EPS_POW, power=p / 2.0, coeff=c_p / const.k2,
        regime=f"dim=4,subquadratic-power-{p}",
    )


@dataclass(frozen=True)
class ExpansionFit:
    scale: str
    power: float
    leading_coeff: float
    intercept: float          # estimate of the flat level gamma0 * S
    r_squared: float
    regime: str


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
    curve,
    scale: str,
    power: float = 1.0,
    regime: str = "",
    half_order_correction: bool = True,
) -> ExpansionFit:
    """Least squares of E = intercept + coeff * x through the curve, with
    x the chosen scale variable.

    The neglected remainder starts at relative order sqrt(eps) with
    cutoff-dependent constants much larger than the leading coefficient,
    so by default two nuisance regressors (x^(3/2) and x^2) absorb the
    curvature; only the intercept and the coefficient on x are reported.
    """
    eps = np.array([e for e, _ in curve], dtype=float)
    vals = np.array(
        [rep.value if isinstance(rep, EnergyReport) else float(rep) for _, rep in curve]
    )
    if eps.size < 5:
        raise FitFailure(f"need at least 5 curve points, got {eps.size}")
    x = scale_variable(eps, scale, power)
    if np.ptp(x) == 0.0:
        raise FitFailure("degenerate design matrix: constant scale variable")
    cols = [np.ones_like(x), x]
    if half_order_correction:
        cols += [x ** 1.5, x ** 2]
    design = np.column_stack(cols)
    coefs, _, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
    if rank < len(cols):
        raise FitFailure("degenerate design matrix")
    fitted = design @ coefs
    ss_res = float(np.sum((vals - fitted) ** 2))
    ss_tot = float(np.sum((vals - np.mean(vals)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return ExpansionFit(
        scale=scale,
        power=power,
        leading_coeff=float(coefs[1]),
        intercept=float(coefs[0]),
        r_squared=r2,
        regime=regime,
    )
