"""Dilation-identity diagnostics and the scaling quotient of the weights.

For a solution pair of the coupled system on the ball, multiplying the
equations by the dilation fields r u' and integrating by parts yields

    2 lam int uv - (1/2) int a~ |grad u|^2 - (1/2) int b~ |grad v|^2
        = boundary flux terms >= 0,

with w~(r) = r w'(r) the radial tilt of a weight.  When the coupling is
weak enough relative to the quotient

    phi(u, v) = (1/4) int (a~ |grad u|^2 + b~ |grad v|^2) / int uv,

no solution can exist; omega = inf phi is therefore the non-existence
threshold.  This module evaluates the identity term by term, estimates
omega over radial pairs (an upper estimate of the radial infimum), and
checks the closed-form bounds and the Hardy-type inequality they rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import FieldPair
from .errors import DegenerateDenominator, GridTooCoarse, OutsideTable
from .grid import RadialGrid, integrate
from .spectral import first_eigenpair
from .weights import UNIT_WEIGHT, WeightProfile


_N_WIDTHS = 12              # omega's bump family: widths from 0.9 R
_MIN_WIDTH_CELLS = 20       # down to the radius of this node


def tilde_weight(w: WeightProfile, grid: RadialGrid) -> np.ndarray:
    """Nodal samples of the radial tilt r * w'(r)."""
    return np.asarray(w.radial_tilt(grid.nodes), dtype=float)


# ---------------------------------------------------------------------------
# dilation identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PohozaevReport:
    coupling_term: float     # 2 lam int uv
    interior_a: float        # (1/2) int a~ |grad u|^2
    interior_b: float        # (1/2) int b~ |grad v|^2
    boundary_a: float        # (1/2) a(R) R u'(R)^2 * boundary area
    boundary_b: float
    residual: float          # (coupling - interiors) - (boundaries)


def pohozaev_report(
    pair: FieldPair,
    l1: float,
    l2: float,
    lam: float,
    a: WeightProfile,
    b: WeightProfile,
    grid: RadialGrid,
) -> PohozaevReport:
    """Evaluate every term of the dilation identity by quadrature.

    The multipliers are part of the solution data but cancel from the
    identity at the critical exponent; they are accepted for provenance
    and not used in any term.  The residual measures how far the supplied
    pair is from satisfying the identity (zero for exact solutions, up to
    discretization error).
    """
    del l1, l2  # cancel exactly at the critical exponent
    du, dv = pair.derivatives(grid)
    ta = tilde_weight(a, grid)
    tb = tilde_weight(b, grid)
    coupling = 2.0 * lam * integrate(pair.u * pair.v, grid)
    interior_a = 0.5 * integrate(ta * du * du, grid)
    interior_b = 0.5 * integrate(tb * dv * dv, grid)
    r_end = grid.radius
    area = grid.surface_factor * r_end ** (grid.dimension - 1)
    boundary_a = 0.5 * float(a(r_end)) * r_end * du[-1] ** 2 * area
    boundary_b = 0.5 * float(b(r_end)) * r_end * dv[-1] ** 2 * area
    residual = (coupling - interior_a - interior_b) - (boundary_a + boundary_b)
    return PohozaevReport(
        coupling_term=coupling,
        interior_a=interior_a,
        interior_b=interior_b,
        boundary_a=boundary_a,
        boundary_b=boundary_b,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# the scaling quotient and its infimum
# ---------------------------------------------------------------------------


def _tilt_energies(pair: FieldPair, a: WeightProfile, b: WeightProfile,
                   grid: RadialGrid) -> tuple[float, float, float]:
    du, dv = pair.derivatives(grid)
    alpha = integrate(tilde_weight(a, grid) * du * du, grid)
    beta = integrate(tilde_weight(b, grid) * dv * dv, grid)
    gamma = integrate(pair.u * pair.v, grid)
    return alpha, beta, gamma


def phi_quotient(pair: FieldPair, a: WeightProfile, b: WeightProfile,
                 grid: RadialGrid) -> float:
    """(1/4) int (a~ |grad u|^2 + b~ |grad v|^2) / int uv."""
    alpha, beta, gamma = _tilt_energies(pair, a, b, grid)
    if gamma == 0.0:
        raise DegenerateDenominator("int uv vanishes")
    return 0.25 * (alpha + beta) / gamma


def optimal_scaling_value(pair: FieldPair, a: WeightProfile, b: WeightProfile,
                          grid: RadialGrid) -> float:
    """min over t > 0 of phi(t u, v) = sqrt(alpha beta) / (2 gamma),
    valid for nonnegative tilt energies and positive overlap."""
    alpha, beta, gamma = _tilt_energies(pair, a, b, grid)
    if gamma <= 0.0:
        raise DegenerateDenominator("optimal scaling requires int uv > 0")
    if alpha < 0.0 or beta < 0.0:
        raise ValueError("closed form requires nonnegative tilt energies")
    return math.sqrt(alpha * beta) / (2.0 * gamma)


@dataclass(frozen=True)
class OmegaEstimate:
    value: float                       # -inf when unbounded below
    lower_bound: float | None
    upper_bound: float | None
    pair: FieldPair | None
    family_values: np.ndarray = field(repr=False)

    @property
    def unbounded_below(self) -> bool:
        return self.value == -math.inf


def _central_bump(width: float, grid: RadialGrid) -> np.ndarray:
    """Smooth bump cos^2(pi r / (2 width)) supported in r < width."""
    r = grid.nodes
    u = np.where(r < width, np.cos(0.5 * np.pi * r / width) ** 2, 0.0)
    u[-1] = 0.0
    return u


def omega_estimate(
    a: WeightProfile,
    b: WeightProfile,
    grid: RadialGrid,
) -> OmegaEstimate:
    """Estimate inf phi over radial pairs.

    The -inf flag is a sign test: if the combined tilt a~ + b~ is negative
    at an interior node, bumps shrinking onto that node drive the quotient
    to -inf, so -inf is returned with no pair and an empty family.
    Otherwise phi is minimized over a family of concentric bumps of
    shrinking width (with the optimal relative scaling applied in closed
    form), and the closed-form power-regime bounds are attached when both
    weights are pure powers.
    """
    if grid.nodes.size <= _MIN_WIDTH_CELLS:
        raise GridTooCoarse(f"omega needs at least {_MIN_WIDTH_CELLS} cells, "
                            f"got {grid.nodes.size - 1}")
    combined = tilde_weight(a, grid)[1:-1] + tilde_weight(b, grid)[1:-1]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(combined))))
    if float(np.min(combined)) < -tol:
        return OmegaEstimate(value=-math.inf, lower_bound=None, upper_bound=None,
                             pair=None, family_values=np.empty(0))

    # nonnegative combined tilt: concentric shrinking bumps
    widths = np.geomspace(grid.radius * 0.9, grid.nodes[_MIN_WIDTH_CELLS], _N_WIDTHS)
    best_val, best_pair, values = math.inf, None, []
    for s in widths:
        pr = FieldPair(u=_central_bump(s, grid), v=_central_bump(s, grid))
        val = phi_quotient(pr, a, b, grid)
        values.append(val)
        if val < best_val:
            best_val, best_pair = val, pr

    lower = upper = None
    pure = (a.perturbation is None and a.extra is None
            and b.perturbation is None and b.extra is None
            and a.coefficient > 0.0 and b.coefficient > 0.0)
    if pure:
        try:
            lam1 = first_eigenpair(UNIT_WEIGHT, grid).lambda1
            lower, upper = omega_bounds(
                grid.dimension, a.exponent, b.exponent,
                a.coefficient, b.coefficient, 2.0 * grid.radius, lam1,
            )
        except OutsideTable:
            pass
    return OmegaEstimate(
        value=best_val, lower_bound=lower, upper_bound=upper,
        pair=best_pair, family_values=np.asarray(values),
    )


def omega_bounds(
    dim: int,
    k: float,
    l: float,
    a_k: float,
    b_l: float,
    diam: float,
    lambda1_unweighted: float,
) -> tuple[float, float | None]:
    """Printed bounds on omega for pure power weights; upper bound only in
    the regimes that state one.

    The quadratic/super-quadratic case and the both-at-most-quadratic case
    overlap at k = l = 2 with different closed-form lower bounds (factor on
    the quadratic coefficient); each case is evaluated exactly as tabulated,
    with the at-most-quadratic branch taking precedence at k = l = 2.
    """
    if k > 2.0 and l > 2.0:
        return 0.0, 0.0
    if k <= 2.0 and l <= 2.0:
        lower = dim ** 2 / 16.0 * min(
            k * a_k * diam ** (k - 2.0), l * b_l * diam ** (l - 2.0)
        )
        return lower, None
    if k == 2.0 and l > 2.0:
        lower = dim ** 2 / 16.0 * min(a_k, l * b_l * diam ** (l - 2.0))
        upper = 0.5 * a_k * lambda1_unweighted * diam ** 2
        return lower, upper
    if l == 2.0 and k > 2.0:
        lower = dim ** 2 / 16.0 * min(b_l, k * a_k * diam ** (k - 2.0))
        upper = 0.5 * b_l * lambda1_unweighted * diam ** 2
        return lower, upper
    raise OutsideTable(
        f"no tabulated omega bounds for exponents ({k}, {l})"
    )


def hardy_check(u: np.ndarray, grid: RadialGrid,
                tol: float | None = None) -> tuple[float, float, bool]:
    """int r^2 |u'|^2 >= (N/2)^2 int u^2 for Dirichlet radial fields."""
    u = grid.check_shape(u)
    du = np.gradient(u, grid.nodes, edge_order=2)
    du[0] = 0.0
    lhs = integrate(grid.nodes ** 2 * du * du, grid)
    rhs = (grid.dimension / 2.0) ** 2 * integrate(u * u, grid)
    if tol is None:
        tol = 1e-9 * max(1.0, lhs, rhs)
    return lhs, rhs, bool(lhs >= rhs - tol)
