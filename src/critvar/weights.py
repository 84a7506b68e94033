"""Radial weight profiles gamma0 + coeff * r^e + r^e * theta(r).

The two coefficients in the coupled energy share the same structure: a
common positive minimum value gamma0 at the center, a power-law growth
with exponent k (or l) and positive coefficient, and an optional
perturbation theta with theta(r) -> 0 as r -> 0, given as a table.  A
profile is a value: it compares and hashes by its fields, so the grid
samples each distinct weight once and keeps one tilt per distinct weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightProfile:
    """Weight w(r) = gamma0 + coefficient * r^exponent + r^exponent * theta(r).

    gamma0 and exponent are positive and coefficient is nonnegative, all
    finite; coefficient = 0 degenerates to a constant weight (the
    "exponent effectively infinite" situation, see constants.case_of).
    `perturbation` is None (theta = 0) or a (radii, theta values) table,
    linearly interpolated and held as two tuples of floats: equally long,
    finite, strictly increasing radii, and theta = 0 at r = 0.
    """

    gamma0: float
    exponent: float = 2.0
    coefficient: float = 0.0
    perturbation: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma0 < math.inf:
            raise ValueError("gamma0 must be positive and finite")
        if not 0.0 < self.exponent < math.inf:
            raise ValueError("exponent must be positive and finite")
        if not 0.0 <= self.coefficient < math.inf:
            raise ValueError("coefficient must be nonnegative and finite")
        if self.perturbation is None:
            return
        r_tab, th_tab = (tuple(map(float, t)) for t in self.perturbation)
        if not 0 < len(r_tab) == len(th_tab) or not all(map(math.isfinite, r_tab + th_tab)):
            raise ValueError("perturbation tables must be finite, nonempty, equally long")
        if any(hi <= lo for lo, hi in zip(r_tab, r_tab[1:])):
            raise ValueError("perturbation radii must be strictly increasing")
        if np.interp(0.0, r_tab, th_tab) != 0.0:
            raise ValueError("perturbation theta must vanish at r = 0")
        object.__setattr__(self, "perturbation", (r_tab, th_tab))

    def _theta_term(self, r: np.ndarray) -> np.ndarray:
        return r ** self.exponent * np.interp(r, *self.perturbation)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        w = self.gamma0 + self.coefficient * r ** self.exponent
        if self.perturbation is not None:
            w = w + self._theta_term(r)
        return w if w.ndim else float(w)

    def derivative(self, r):
        """dw/dr; analytic for the power part, centered differences for the
        perturbation term."""
        r = np.asarray(r, dtype=float)
        # r^(e - 1), taken as 0 at r = 0 when e < 1, where it is infinite
        d = self.coefficient * self.exponent * np.power(
            r, self.exponent - 1.0, out=np.zeros_like(r),
            where=(r > 0.0) | (self.exponent >= 1.0))
        if self.perturbation is not None:
            h = 1e-6 * (1.0 + np.abs(r))
            rm = np.maximum(r - h, 0.0)
            rp = r + h
            d = d + (self._theta_term(rp) - self._theta_term(rm)) / (rp - rm)
        return d if d.ndim else float(d)

    def radial_tilt(self, r):
        """r * w'(r), the radial dilation derivative of the weight."""
        r = np.asarray(r, dtype=float)
        t = r * self.derivative(r)
        return t if t.ndim else float(t)
