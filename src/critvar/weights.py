"""Radial weight profiles gamma0 + coeff * r^e + r^e * theta(r).

The two coefficients in the coupled energy share the same structure: a
common positive minimum value gamma0 at the center, a power-law growth
with exponent k (or l) and positive coefficient, and an optional
perturbation theta with theta(r) -> 0 as r -> 0.  Profiles outside this
model (used by the non-existence tests to produce weights whose radial
derivative turns negative) are expressed through the `extra` term, an
arbitrary additional radial function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import RadialGrid

_MONOTONICITY_ABS = 1e-8    # slack in the weight-derivative inequality


def _as_callable(theta) -> Callable | None:
    if theta is None or callable(theta):
        return theta
    r_tab, th_tab = theta
    r_tab = np.asarray(r_tab, dtype=float)
    th_tab = np.asarray(th_tab, dtype=float)
    return lambda r: np.interp(r, r_tab, th_tab)


@dataclass(frozen=True)
class WeightProfile:
    """Weight w(r) = gamma0 + coefficient * r^exponent + r^exponent * theta(r) + extra(r).

    coefficient = 0 degenerates to a constant weight (the "exponent
    effectively infinite" situation).  `perturbation` may be a callable or
    a (r_table, theta_table) pair, linearly interpolated; default theta = 0.
    """

    gamma0: float
    exponent: float = 2.0
    coefficient: float = 0.0
    perturbation: object = None
    extra: Callable | None = None

    def __post_init__(self):
        if self.gamma0 <= 0.0:
            raise ValueError("gamma0 must be positive")
        if self.exponent <= 0.0:
            raise ValueError("exponent must be positive")
        if self.coefficient < 0.0:
            raise ValueError("coefficient must be nonnegative")
        object.__setattr__(self, "_theta", _as_callable(self.perturbation))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        w = self.gamma0 + self.coefficient * r ** self.exponent
        if self._theta is not None:
            w = w + r ** self.exponent * self._theta(r)
        if self.extra is not None:
            w = w + self.extra(r)
        return w if w.ndim else float(w)

    def derivative(self, r):
        """dw/dr; analytic for the power part, centered differences for the
        perturbation and extra terms."""
        r = np.asarray(r, dtype=float)
        d = self.coefficient * self.exponent * r ** np.maximum(self.exponent - 1.0, 0.0)
        if self.exponent < 1.0:
            d = np.where(r > 0.0, self.coefficient * self.exponent * r ** (self.exponent - 1.0), 0.0)
        if self._theta is not None or self.extra is not None:
            h = 1e-6 * (1.0 + np.abs(r))
            rm = np.maximum(r - h, 0.0)
            rp = r + h

            def rest(x):
                out = np.zeros_like(x)
                if self._theta is not None:
                    out = out + x ** self.exponent * self._theta(x)
                if self.extra is not None:
                    out = out + self.extra(x)
                return out

            d = d + (rest(rp) - rest(rm)) / (rp - rm)
        return d if d.ndim else float(d)

    def radial_tilt(self, r):
        """r * w'(r), the radial dilation derivative of the weight."""
        r = np.asarray(r, dtype=float)
        t = r * self.derivative(r)
        return t if t.ndim else float(t)

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "WeightProfile":
        return cls(gamma0=value, exponent=2.0, coefficient=0.0)

    @classmethod
    def pure_power(cls, gamma0: float, exponent: float,
                   coefficient: float) -> "WeightProfile":
        return cls(gamma0=gamma0, exponent=exponent, coefficient=coefficient)


# one unit weight for the whole package, so that its operator is built once
# per grid (assemble_operator keys its memo on the weight object)
UNIT_WEIGHT = WeightProfile.constant(1.0)


@dataclass(frozen=True)
class MonotonicityReport:
    holds: bool
    worst_node: float     # radius of the most violating node
    worst_gap: float      # max of (e*A*r^e - r*w'(r)); <= tol when holds


def check_monotonicity_condition(
    w: WeightProfile, grid: RadialGrid, tol: float | None = None
) -> MonotonicityReport:
    """Check e * A * r^e <= r * w'(r) + tol at all interior nodes.

    For pure powers the two sides agree identically; perturbed profiles
    pass as long as the perturbation does not tilt the weight downward.
    """
    if tol is None:
        tol = _MONOTONICITY_ABS * max(
            1.0, w.coefficient * grid.radius ** w.exponent
        )
    r = grid.nodes[1:-1]
    lhs = w.exponent * w.coefficient * r ** w.exponent
    rhs = w.radial_tilt(r)
    gap = lhs - rhs
    i = int(np.argmax(gap))
    return MonotonicityReport(
        holds=bool(np.all(gap <= tol)),
        worst_node=float(r[i]),
        worst_gap=float(gap[i]),
    )
