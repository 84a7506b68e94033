"""Closed-form constants of the concentration profile, and the case table.

Everything here reduces to moments of the standard profile 1/(1+r^2):

    I(s, p) = int_0^inf r^s (1 + r^2)^(-p) dr = (1/2) B((s+1)/2, p-(s+1)/2),

computed through the Beta function (as log-Gammas from `math`, so that
importing critvar does not load scipy.special).

The case table decides here, from a row (Case) alone: existence_verdict
classifies a coupling against the row's gap and lambda-tilde, and
expansion_prediction gives the scale (one of the SCALE_* labels) and
signed coefficient of the concentration-test energy's expansion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import BadDomain, BadSpectrum, DivergentIntegral
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
    """Gradient mass K1, critical-norm mass K2 and L2 mass K3 (nan at N = 4,
    where it is eps*|ln eps|-scaled) of the optimal profile; S = K1/K2."""

    dim: int
    k1: float
    k2: float
    k3: float
    s: float
    sigma: float


@functools.cache
def bubble_constants(dim: int) -> BubbleConstants:
    """Constants for dimension N >= 4, computed once per N (they depend on
    N alone); the L2 constant exists for N >= 5."""
    if dim < 4:
        raise BadDomain(f"constants are defined for N >= 4, got {dim}")
    sigma = unit_sphere_area(dim)
    k1 = (dim - 2) ** 2 * sigma * radial_moment(dim + 1, dim)
    k2 = (sigma * radial_moment(dim - 1, dim)) ** ((dim - 2) / dim)
    k3 = sigma * radial_moment(dim - 1, dim - 2) if dim >= 5 else math.nan
    return BubbleConstants(dim=dim, k1=k1, k2=k2, k3=k3, s=k1 / k2, sigma=sigma)


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
    def gap(self) -> float:
        """The coupling above which the concentration-test energy certifies
        a gap below gamma0 * S; nan outside the table."""
        return math.nan if self.name is None else self.threshold_both


def case_of(dim: int, a: WeightProfile, b: WeightProfile) -> Case:
    """The case-table row of the weights a and b in dimension dim; a constant
    weight has no growth and acts as an arbitrarily large exponent."""
    (k, a_k), (l, b_l) = ((math.inf, 0.0) if w.coefficient == 0.0
                          else (w.exponent, w.coefficient) for w in (a, b))
    return Case(dim, k, l, a_k, b_l)


# ---------------------------------------------------------------------------
# the table's verdicts: existence at a coupling, and the expansion's scale
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExistenceVerdict:
    case_id: str
    verdict: str               # achieved_by_theorem | energy_gap_only |
    #                            no_minimizer_by_theorem | outside_theory


def existence_verdict(case: Case, lam: float, lam_tilde: float,
                      omega_estimate: float = math.nan) -> ExistenceVerdict:
    """Pure dispatch of one coupling against the case table's row.

    omega_estimate is a certified lower bound on the quotient infimum
    (couplings at or below it admit no minimizer), or nan, which rules out
    nothing; an upper estimate here would over-claim non-existence.
    """
    if lam_tilde <= 0.0 or not math.isfinite(lam_tilde):
        raise BadSpectrum(f"first eigenvalue must be positive, got {lam_tilde}")
    if lam <= omega_estimate:
        return ExistenceVerdict("nonexistence.coupling-below-omega",
                                "no_minimizer_by_theorem")
    name, gap = case.name, case.gap
    if name is None:
        return ExistenceVerdict("outside", "outside_theory")
    # at N = 4 only the supercritical case's existence is proved
    if (case.dim >= 5 or name == "supercritical-powers") and gap < lam < lam_tilde:
        return ExistenceVerdict("existence." + name, "achieved_by_theorem")
    if lam > gap:
        return ExistenceVerdict("gap." + name, "energy_gap_only")
    return ExistenceVerdict("outside", "outside_theory")


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
