"""Closed-form constants of the concentration profile, and the case table.

Everything here reduces to moments of the standard profile 1/(1+r^2):

    I(s, p) = int_0^inf r^s (1 + r^2)^(-p) dr = (1/2) B((s+1)/2, p-(s+1)/2),

computed through the Beta function (as log-Gammas from `math`, so that
importing critvar does not load scipy.special).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import BadDomain, DivergentIntegral, LogScaledRegime
from .grid import unit_sphere_area
from .weights import WeightProfile


def radial_moment(s: float, p: float) -> float:
    """I(s, p) via the Beta closed form; requires p > (s+1)/2."""
    if p <= (s + 1.0) / 2.0:
        raise DivergentIntegral(f"I({s}, {p}) diverges: need p > (s+1)/2")
    x = (s + 1.0) / 2.0
    return 0.5 * math.exp(math.lgamma(x) + math.lgamma(p - x) - math.lgamma(p))


@dataclass(frozen=True)
class BubbleConstants:
    """Gradient mass K1, critical-norm mass K2, L2 mass K3 of the optimal
    concentration profile, plus the best embedding constant S = K1/K2."""

    dim: int
    k1: float
    k2: float
    s: float
    sigma: float
    valid_k3: bool
    _k3: float | None = None

    @property
    def k3(self) -> float:
        if not self.valid_k3:
            raise LogScaledRegime(
                "no finite L2 mass constant at N = 4; the L2 mass is "
                "eps*|ln eps|-scaled there"
            )
        return self._k3


@functools.cache
def bubble_constants(dim: int) -> BubbleConstants:
    """Constants for dimension N >= 4, computed once per N (they depend on
    N alone); the L2 constant exists for N >= 5."""
    if dim < 4:
        raise BadDomain(f"constants are defined for N >= 4, got {dim}")
    sigma = unit_sphere_area(dim)
    k1 = (dim - 2) ** 2 * sigma * radial_moment(dim + 1, dim)
    k2 = (sigma * radial_moment(dim - 1, dim)) ** ((dim - 2) / dim)
    valid_k3 = dim >= 5
    k3 = sigma * radial_moment(dim - 1, dim - 2) if valid_k3 else None
    return BubbleConstants(
        dim=dim, k1=k1, k2=k2, s=k1 / k2, sigma=sigma, valid_k3=valid_k3, _k3=k3
    )


def correction_constant(dim: int, coeff: float, exponent: float) -> float:
    """(N-2)^2 * coeff * int |y|^(e+2) (1+|y|^2)^(-N) dy; finite for e < N-2."""
    if exponent <= 0.0:
        raise ValueError("exponent must be positive")
    if exponent >= dim - 2:
        raise DivergentIntegral(
            f"correction constant diverges for exponent {exponent} >= N-2 = {dim - 2}"
        )
    sigma = unit_sphere_area(dim)
    return (dim - 2) ** 2 * coeff * sigma * radial_moment(dim + exponent + 1, dim)


def slope_factor(dim: int) -> float:
    """m_N = N(N-2)(N+2) / (8(N-1)), the quadratic-weight threshold factor."""
    return dim * (dim - 2) * (dim + 2) / (8.0 * (dim - 1))


@dataclass(frozen=True)
class Case:
    """One row of the case table: dimension N >= 4, each weight's growth
    exponent (k, l) and r^k, r^l coefficient (a_k, b_l).  A constant weight
    is exponent inf with coefficient 0 (see case_of), so two constant
    weights give one row whatever their unused exponents."""

    dim: int
    k: float
    l: float
    a_k: float
    b_l: float

    def __post_init__(self):
        if self.dim < 4:
            raise BadDomain(f"the case table is defined for N >= 4, got {self.dim}")
        if not (0.0 <= self.a_k < math.inf and 0.0 <= self.b_l < math.inf):
            raise ValueError("growth coefficients must be nonnegative and finite")

    @property
    def _factor(self) -> float:
        """m_N, or 1 at N = 4 (the eps*|ln eps| balance there)."""
        return 1.0 if self.dim == 4 else slope_factor(self.dim)

    # A2 and B2, each weight's r^2 coefficient: a_k at k = 2, else 0
    _a2 = property(lambda self: self.a_k if self.k == 2 else 0.0)
    _b2 = property(lambda self: self.b_l if self.l == 2 else 0.0)
    # the coupling thresholds of constants.csv; above threshold_both the
    # concentration-test energy drops below gamma0 * S
    threshold_first = property(lambda self: self._factor * self._a2)
    threshold_second = property(lambda self: self._factor * self._b2)
    threshold_both = property(lambda self: self._factor * (self._a2 + self._b2))

    @property
    def name(self) -> str | None:
        """The row's name; None where an exponent is below 2."""
        if self.k < 2 or self.l < 2:
            return None
        if self.k == 2:
            return "quadratic-both" if self.l == 2 else "quadratic-first"
        return "quadratic-second" if self.l == 2 else "supercritical-powers"

    @property
    def gap(self) -> float | None:
        """The coupling above which the concentration-test energy certifies
        a gap below gamma0 * S; None outside the table."""
        return None if self.name is None else self.threshold_both


def case_of(dim: int, a: WeightProfile, b: WeightProfile) -> Case:
    """The case-table row of the weights a and b in dimension dim; a constant
    weight has no growth and acts as an arbitrarily large exponent."""
    (k, a_k), (l, b_l) = ((math.inf, 0.0) if w.coefficient == 0.0
                          else (w.exponent, w.coefficient) for w in (a, b))
    return Case(dim, k, l, a_k, b_l)
