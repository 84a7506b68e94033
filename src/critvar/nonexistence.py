"""Dilation-identity diagnostics and the scaling quotient of the weights.

For a solution pair of the coupled system on the ball, multiplying the
equations by the dilation fields r u' and integrating by parts yields

    2 lam int uv - (1/2) int a~ |grad u|^2 - (1/2) int b~ |grad v|^2
        = boundary flux terms >= 0,

with w~(r) = r w'(r) the radial tilt of a weight.  When the coupling is
weak enough relative to the quotient

    phi(u, v) = (1/4) int (a~ |grad u|^2 + b~ |grad v|^2) / int uv,

no solution can exist; omega = inf phi is therefore the non-existence
threshold.  This module evaluates the identity term by term, its coupling
and interior terms from phi's own integrals, estimates omega over radial
pairs (an upper estimate of the radial infimum), and gives the
closed-form bounds on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateDenominator, GridTooCoarse, IndefiniteWeight
from .grid import FieldPair, RadialGrid, integrate
from .spectral import first_eigenpair
from .weights import WeightProfile


_N_WIDTHS = 12              # omega's bump family: widths from 0.9 R
_MIN_WIDTH_CELLS = 20       # down to the radius of this node


def tilde_weight(w: WeightProfile, grid: RadialGrid) -> np.ndarray:
    """Nodal samples of the radial tilt r * w'(r), taken once per (weight,
    grid) and kept read-only on the grid (omega and Pohozaev share them).
    Raises IndefiniteWeight unless every sample is finite."""
    def build():
        with np.errstate(all="ignore"):         # an inf or nan sample is refused below
            tilt = np.asarray(w.radial_tilt(grid.nodes), dtype=float)
        if not np.all(np.isfinite(tilt)):
            raise IndefiniteWeight("the weight's radial tilt r w'(r) must be finite on the grid")
        tilt.flags.writeable = False
        return tilt
    return grid._cached(("tilt", w), build)


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


def pohozaev_report(pair: FieldPair, lam: float, a: WeightProfile, b: WeightProfile,
                    grid: RadialGrid) -> PohozaevReport:
    """Evaluate every term of the dilation identity by quadrature.

    The coupling and interior terms are 2 lam gamma, alpha / 2 and beta / 2
    from phi's integrals (_tilt_energies); the boundary terms read the
    same derivatives at R.  The Lagrange multipliers cancel from the
    identity at the critical exponent, so no term reads them.  The
    residual measures how far the supplied pair is from satisfying the
    identity (zero for exact solutions, up to discretization error).
    """
    (alpha, beta, gamma), (du, dv) = _tilt_energies(pair, a, b, grid)
    coupling = 2.0 * lam * gamma
    interior_a = 0.5 * alpha
    interior_b = 0.5 * beta
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
                   grid: RadialGrid) -> tuple[tuple[float, float, float], tuple]:
    """phi's integrals (int a~ |u'|^2, int b~ |v'|^2, int uv), the one place
    they are formed, and the derivatives (u', v') they were formed from; a
    pair with v is u is differentiated once."""
    du, dv = pair.derivatives(grid)
    alpha = integrate(tilde_weight(a, grid) * du * du, grid)
    beta = integrate(tilde_weight(b, grid) * dv * dv, grid)
    gamma = integrate(pair.u * pair.v, grid)
    return (alpha, beta, gamma), (du, dv)


def phi_quotient(pair: FieldPair, a: WeightProfile, b: WeightProfile,
                 grid: RadialGrid) -> float:
    """(1/4) int (a~ |grad u|^2 + b~ |grad v|^2) / int uv."""
    (alpha, beta, gamma), _ = _tilt_energies(pair, a, b, grid)
    if gamma == 0.0:
        raise DegenerateDenominator("int uv vanishes")
    return 0.25 * (alpha + beta) / gamma


@dataclass(frozen=True)
class OmegaEstimate:
    value: float                       # -inf when unbounded below
    lower_bound: float                 # nan where no closed-form bound is stated
    upper_bound: float
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
    to -inf, so -inf is returned with an empty family.
    Otherwise phi is evaluated at u = v, with no relative scaling of the
    two components, on a family of concentric bumps of shrinking width;
    the smallest value is kept, and the closed-form power-regime bounds
    are attached when both weights are pure powers.
    Each bump is built and differentiated once, and the unit-weight
    eigenvalue is computed only in the regimes whose upper bound reads it.
    """
    if grid.nodes.size <= _MIN_WIDTH_CELLS:
        raise GridTooCoarse(f"omega needs at least {_MIN_WIDTH_CELLS} cells, "
                            f"got {grid.nodes.size - 1}")
    combined = tilde_weight(a, grid)[1:-1] + tilde_weight(b, grid)[1:-1]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(combined))))
    if float(np.min(combined)) < -tol:
        return OmegaEstimate(value=-math.inf, lower_bound=math.nan,
                             upper_bound=math.nan, family_values=np.empty(0))

    # nonnegative combined tilt: concentric shrinking bumps
    widths = np.geomspace(grid.radius * 0.9, grid.nodes[_MIN_WIDTH_CELLS], _N_WIDTHS)
    values = []
    for s in widths:
        bump = _central_bump(s, grid)
        values.append(phi_quotient(FieldPair(u=bump, v=bump), a, b, grid))

    lower = upper = math.nan
    pure = (a.perturbation is None and b.perturbation is None
            and a.coefficient > 0.0 and b.coefficient > 0.0)
    if pure:
        lower, upper = omega_bounds(
            grid.dimension, a.exponent, b.exponent,
            a.coefficient, b.coefficient, 2.0 * grid.radius,
            lambda: first_eigenpair(WeightProfile(1.0), grid).lambda1,
        )
    return OmegaEstimate(
        value=min(values), lower_bound=lower, upper_bound=upper,
        family_values=np.asarray(values),
    )


def _power(x: float, e: float) -> float:
    """x ** e, inf where it overflows (float ** raises OverflowError there)."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def omega_bounds(
    dim: int,
    k: float,
    l: float,
    a_k: float,
    b_l: float,
    diam: float,
    lambda1_unweighted: Callable[[], float],
) -> tuple[float, float]:
    """Printed bounds on omega for pure power weights; a bound is nan
    where no regime states it, and both are for exponents no regime covers.

    lambda1_unweighted returns the unit weight's first eigenvalue; it is
    called only where an upper bound is stated, the one regime that reads it.

    The quadratic/super-quadratic case and the both-at-most-quadratic case
    overlap at k = l = 2 with different closed-form lower bounds (factor on
    the quadratic coefficient); each case is evaluated exactly as tabulated,
    with the at-most-quadratic branch taking precedence at k = l = 2.
    A power past the float range reads inf (_power).
    """
    if k > 2.0 and l > 2.0:
        return 0.0, 0.0
    if k <= 2.0 and l <= 2.0:
        lower = dim ** 2 / 16.0 * min(
            k * a_k * _power(diam, k - 2.0), l * b_l * _power(diam, l - 2.0)
        )
        return lower, math.nan
    if (k == 2.0 and l > 2.0) or (l == 2.0 and k > 2.0):
        # quad: the quadratic weight's coefficient; (e, c): the other's power
        quad, e, c = (a_k, l, b_l) if k == 2.0 else (b_l, k, a_k)
        lower = dim ** 2 / 16.0 * min(quad, e * c * _power(diam, e - 2.0))
        return lower, 0.5 * quad * lambda1_unweighted() * diam ** 2
    return math.nan, math.nan

