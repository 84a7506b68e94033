"""Closed-form constants of the concentration profile and their thresholds.

Everything here reduces to moments of the standard profile 1/(1+r^2):

    I(s, p) = int_0^inf r^s (1 + r^2)^(-p) dr = (1/2) B((s+1)/2, p-(s+1)/2),

computed through the Beta function (as log-Gammas from `math`, so that
importing critvar does not load scipy.special) and cross-checked by adaptive
quadrature on the compactified variable r = tan(theta) (no cutoff
truncation; tail exponents vary too much across (s, p) for that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergentIntegral, LogScaledRegime
from .grid import unit_sphere_area


def radial_moment(s: float, p: float) -> float:
    """I(s, p) via the Beta closed form; requires p > (s+1)/2."""
    if p <= (s + 1.0) / 2.0:
        raise DivergentIntegral(f"I({s}, {p}) diverges: need p > (s+1)/2")
    x = (s + 1.0) / 2.0
    return 0.5 * math.exp(math.lgamma(x) + math.lgamma(p - x) - math.lgamma(p))

def radial_moment_quadrature(s: float, p: float) -> float:
    """Independent route for I(s, p): adaptive quadrature after r = tan(t).

    The substitution maps [0, inf) to [0, pi/2) and turns the integrand
    into sin^s(t) cos^(2p - s - 2)(t), bounded whenever the integral
    converges.
    """
    # imported here: scipy.integrate is most of `import critvar`'s time
    from scipy import integrate

    if p <= (s + 1.0) / 2.0:
        raise DivergentIntegral(f"I({s}, {p}) diverges: need p > (s+1)/2")

    def f(t):
        return math.sin(t) ** s * math.cos(t) ** (2.0 * p - s - 2.0)

    val, _err = integrate.quad(f, 0.0, 0.5 * math.pi, limit=200)
    return val


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


def bubble_constants(dim: int) -> BubbleConstants:
    """Constants for dimension N >= 4; the L2 constant exists for N >= 5."""
    if dim < 4:
        raise ValueError(f"constants are defined for N >= 4, got {dim}")
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


def quadratic_part(exponent: float, coeff: float) -> float:
    """r^2 coefficient of the growth coeff * r^exponent: coeff at exponent 2,
    else 0."""
    return coeff if exponent == 2 else 0.0


def slope_factor(dim: int) -> float:
    """m_N = N(N-2)(N+2) / (8(N-1)), the quadratic-weight threshold factor."""
    return dim * (dim - 2) * (dim + 2) / (8.0 * (dim - 1))


@dataclass(frozen=True)
class Thresholds:
    """Coupling thresholds above which the concentration-test energy drops
    below gamma0 * S, per weight-exponent regime."""

    dim: int
    m_n: float
    gamma_n: float          # both exponents = 2
    gamma_tilde_a: float    # only the first exponent = 2
    gamma_tilde_b: float    # only the second exponent = 2


def thresholds(dim: int, a2: float, b2: float) -> Thresholds:
    """Thresholds for dimension N >= 4; the N = 4 case replaces the factor
    m_N by 1 (the eps*|ln eps| balance there)."""
    if dim < 4:
        raise ValueError(f"thresholds are defined for N >= 4, got {dim}")
    if a2 < 0.0 or b2 < 0.0:
        raise ValueError("quadratic coefficients must be nonnegative")
    m_n = slope_factor(dim)
    factor = 1.0 if dim == 4 else m_n
    return Thresholds(
        dim=dim,
        m_n=m_n,
        gamma_n=factor * (a2 + b2),
        gamma_tilde_a=factor * a2,
        gamma_tilde_b=factor * b2,
    )
