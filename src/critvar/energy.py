"""Field pairs and the normalized coupled energy.

The objective is, for Dirichlet fields u, v on the ball,

    E(u, v) = (1/2) int a |grad u|^2 / |u|_q^2
            + (1/2) int b |grad v|^2 / |v|_q^2
            - lam * int u v / (|u|_q |v|_q),

with q = 2N/(N-2).  Gradient energies are computed from cell-face
differences, so that the quadratic form agrees exactly with the assembled
flux operator used by the spectral and descent modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, NumericFault, ShapeMismatch
from .grid import RadialGrid, integrate
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
        """Nodal derivative arrays (central differences, u'(0) = 0)."""
        du = np.gradient(self.u, grid.nodes, edge_order=2)
        dv = np.gradient(self.v, grid.nodes, edge_order=2)
        du[0] = 0.0
        dv[0] = 0.0
        return du, dv


def dirichlet_field(values, grid: RadialGrid) -> np.ndarray:
    """Clamp the boundary node to zero and validate shape."""
    f = grid.check_shape(values).copy()
    f[-1] = 0.0
    return f


def _face_flux(w: WeightProfile, grid: RadialGrid) -> np.ndarray:
    """w(r_{i+1/2}) r_{i+1/2}^(N-1) on faces 1..n-1, once per (weight, grid)."""
    entry = grid._face_flux.get(id(w))
    if entry is None:
        faces = grid.faces[1:]
        flux = np.asarray(w(faces), dtype=float) * faces ** (grid.dimension - 1)
        flux.flags.writeable = False
        entry = grid._face_flux[id(w)] = (w, flux)
    return entry[1]


def weighted_gradient_energy(u: np.ndarray, w: WeightProfile, grid: RadialGrid) -> float:
    """int w(r) |u'(r)|^2 r^(N-1) sigma dr by cell-face differences.

    The innermost cell (0, r_1) is skipped: its flux factor r^(N-1)
    vanishes at the order of the rule for radially smooth fields (u'(0)=0).
    """
    u = grid.check_shape(u)
    if not np.all(np.isfinite(u)):
        raise NumericFault("non-finite field samples")
    return _gradient_energy(u, _face_flux(w, grid), grid, np.empty(u.size - 2))


def _gradient_energy(u, flux, grid: RadialGrid, out) -> float:
    """Unchecked kernel of weighted_gradient_energy; overwrites `out` (n-1 faces)."""
    # Face differences, not x.K.x: near a smooth minimizer x.K.x cancels large
    # terms of opposite sign, and the flow fed it stalled at 7 of 8
    # existence-sweep couplings (lambda = 9: 2,454 iterations, residual 6e-5;
    # with this sum of squares it converges in 946).
    h = grid.spacings[1:]
    np.subtract(u[2:], u[1:-1], out=out)
    out /= h
    out **= 2
    out *= flux
    out *= h
    return float(grid.surface_factor * out.sum())


def lq_norm(u: np.ndarray, grid: RadialGrid) -> float:
    """(int |u|^q)^(1/q) with q = 2N/(N-2)."""
    return _lq_norm(grid.check_shape(u), grid, np.empty(grid.nodes.size))


def _lq_norm(u, grid: RadialGrid, out) -> float:
    """Unchecked kernel of lq_norm; `out` (one value per node) is overwritten."""
    q = critical_exponent(grid.dimension)
    np.abs(u, out=out)
    out **= q
    return float(np.dot(grid.masses, out)) ** (1.0 / q)


@dataclass(frozen=True)
class EnergyReport:
    """The three normalized terms of the coupled energy."""

    grad_a: float
    grad_b: float
    coupling: float
    value: float
    norm_u: float
    norm_v: float
    q: float


def _pair_terms(u, v, a: WeightProfile, b: WeightProfile, grid: RadialGrid):
    """(grad_a, grad_b, int uv, |u|_q, |v|_q): the energy's lam-free terms."""
    nu = lq_norm(u, grid)
    nv = nu if v is u else lq_norm(v, grid)
    if nu == 0.0 or nv == 0.0:
        raise DegeneratePair("both components must be nonzero")
    grad_a = 0.5 * weighted_gradient_energy(u, a, grid) / nu ** 2
    grad_b = 0.5 * weighted_gradient_energy(v, b, grid) / nv ** 2
    return grad_a, grad_b, integrate(u * v, grid), nu, nv


def _energy_report(terms, lam: float, q: float) -> EnergyReport:
    """The energy at coupling lam, which enters `_pair_terms` affinely."""
    grad_a, grad_b, uv, nu, nv = terms
    coupling = lam * uv / (nu * nv)
    value = grad_a + grad_b - coupling
    if not np.isfinite(value):
        raise NumericFault("non-finite energy")
    return EnergyReport(grad_a, grad_b, coupling, value, nu, nv, q)


def energy(
    pair: FieldPair,
    a: WeightProfile,
    b: WeightProfile,
    lam: float,
    grid: RadialGrid,
) -> EnergyReport:
    """Evaluate the normalized coupled energy; scale-invariant per component."""
    return _energy_report(_pair_terms(pair.u, pair.v, a, b, grid), lam,
                          critical_exponent(grid.dimension))
