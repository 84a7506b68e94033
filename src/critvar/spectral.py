"""First Dirichlet eigenpair of the weighted radial operator -div(w grad).

In radial coordinates the operator reads -r^(1-N) (r^(N-1) w u')'.  It is
discretized in flux form on the interior nodes: the face between nodes i
and i+1 carries the conductance

    c_{i+1/2} = sigma * w(r_{i+1/2}) * r_{i+1/2}^(N-1) / h_i,

the weight evaluated at the arithmetic face midpoint.  The node mass is
the same cell mass the quadrature uses, so Rayleigh quotients of the
discrete operator coincide exactly with quadrature energy ratios.  The
origin carries zero flux (radial regularity); the boundary is Dirichlet.

assemble_operator is the one place a weight is sampled on a grid: it
builds one read-only operator per (weight, grid), factored once and kept
on the grid, with its conductances c.  The gradient energy is
sum c (x_{i+1} - x_i)^2; the descent flow takes it as sum f (x_{i+1} - x_i)
from the face fluxes f = c (x_{i+1} - x_i), and K x as the difference of
those same fluxes (_flux_difference), so one pass over the faces serves
both.  The descent flow, the eigen-solve, the Euler-Lagrange residual and
the gradient energy all share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import IndefiniteWeight, SpectralStall, ThresholdNotReached
from .grid import RadialGrid, integrate
from .weights import WeightProfile

_EIG_TOL = 1e-11            # inverse iteration: relative Rayleigh change (residual: 100x)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric positive-definite flux operator on interior nodes 1..n-1;
    its arrays are read-only, as every caller shares it."""

    diag: np.ndarray       # K_ii
    off: np.ndarray        # K_{i,i+1} = K_{i+1,i}, length len(diag)-1
    c: np.ndarray          # conductances c_{i+1/2} on faces 1..n-1; off = -c[:-1]
    _factor: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # LDL^T factor by LAPACK ?pttrf, the first half of the ?ptsv that
        # solveh_banded runs on every call, so each solve is bitwise the same.
        d, e, info = dpttrf(self.diag, self.off)
        if info != 0:
            raise IndefiniteWeight("stiffness operator is not positive definite")
        object.__setattr__(self, "_factor", (d, e))
        for arr in (self.diag, self.off, self.c, d, e):
            arr.flags.writeable = False

    @property
    def size(self) -> int:
        return self.diag.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = self.diag * x
        out[:-1] += self.off * x[1:]
        out[1:] += self.off * x[:-1]
        return out

    @staticmethod
    def _flux_difference(f, out):
        """K x into `out` from the face fluxes f of x, one value longer
        than x: f[0] = 0 through the origin face and f[j+1] = c[j] (x[j+1]
        - x[j]), with x[size] = 0 the Dirichlet node; out[j] = f[j] -
        f[j+1], which is K x because diag[0] = c[0] and diag[j] = c[j-1]
        + c[j]."""
        return np.subtract(f[:-1], f[1:], out=out)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """K x = rhs from the factor built once per operator; raises
        ValueError for a non-finite or wrongly sized rhs."""
        rhs = np.asarray_chkfinite(rhs)
        if rhs.shape[0] != self.size:
            raise ValueError("shapes of operator and rhs are not compatible")
        return self._solve(rhs)

    def _solve(self, rhs):
        """Unchecked kernel of solve: rhs must be finite and of the operator's size."""
        return dpttrs(*self._factor, rhs)[0]


def assemble_operator(w: WeightProfile, grid: RadialGrid) -> TridiagonalOperator:
    """Flux-form stiffness for -div(w grad) with Dirichlet boundary, built
    once per (weight, grid) and kept on the grid.

    The quadratic form x.K.x equals the cell-face gradient energy of the
    field extended by zero at the boundary.  Raises IndefiniteWeight (and
    caches nothing) unless w is finite and positive at the nodes and faces.
    """
    entry = grid._operators.get(id(w))
    if entry is not None:
        return entry[1]
    nodes_w = np.asarray(w(grid.nodes), dtype=float)
    if not np.all(np.isfinite(nodes_w) & (nodes_w > 0.0)):
        raise IndefiniteWeight("weight must be finite and strictly positive on the grid")
    faces = grid.faces[1:]                        # r_{i+1/2}, i = 1..n-1
    wf = np.asarray(w(faces), dtype=float)
    if not np.all(np.isfinite(wf) & (wf > 0.0)):
        raise IndefiniteWeight("weight must be finite and strictly positive at cell faces")
    area = faces ** (grid.dimension - 1)
    c = grid.surface_factor * wf * area / grid.spacings[1:]
    diag = np.empty(grid.n_cells - 1)
    diag[0] = c[0]                                # zero flux through the origin face
    diag[1:] = c[:-1] + c[1:]
    off = -c[:-1]                                 # couples nodes i, i+1 for i < n-1
    op = TridiagonalOperator(diag=diag, off=off, c=c)
    # holding w keeps its id from naming another weight
    grid._operators[id(w)] = (w, op)
    return op


@dataclass(frozen=True)
class SpectralResult:
    lambda1: float
    eigenfunction: np.ndarray   # full node array, positive, int phi^2 = 1
    iterations: int
    residual: float             # |K phi - lambda M phi| in the M^-1 norm


def _extrapolate_origin(phi: np.ndarray, grid: RadialGrid) -> float:
    """Quadratic regularity fit u = u0 + c r^2 through the two first nodes."""
    r1, r2 = grid.nodes[1], grid.nodes[2]
    return float((phi[1] * r2 ** 2 - phi[2] * r1 ** 2) / (r2 ** 2 - r1 ** 2))


def first_eigenpair(
    w: WeightProfile,
    grid: RadialGrid,
    max_iters: int = 500,
) -> SpectralResult:
    """Smallest eigenvalue of K x = lambda M x by inverse iteration.

    Convergence is declared on the Rayleigh quotient together with the
    M^-1-norm eigen-residual; the eigenfunction is sign-fixed positive and
    L2-normalized.
    """
    op = assemble_operator(w, grid)
    m = grid.masses[1:-1]
    x = np.ones(op.size)
    x /= np.sqrt(np.dot(m, x * x))
    rho = rho_old = np.inf
    for it in range(1, max_iters + 1):
        y = op.solve(m * x)
        x = y / np.sqrt(np.dot(m, y * y))
        kx = op.apply(x)
        rho = float(np.dot(x, kx))           # x is M-normalized
        res = kx - rho * m * x
        res_norm = float(np.sqrt(np.dot(res * res, 1.0 / m)))
        if (abs(rho - rho_old) <= _EIG_TOL * abs(rho)
                and res_norm <= 100.0 * _EIG_TOL * abs(rho)):
            break
        rho_old = rho
    else:
        raise SpectralStall(
            f"inverse iteration did not converge in {max_iters} iterations",
            last_rayleigh=rho,
        )
    if np.sum(x) < 0.0:
        x = -x
    phi = np.zeros(grid.nodes.size)
    phi[1:-1] = x
    phi[0] = _extrapolate_origin(phi, grid)
    phi /= np.sqrt(integrate(phi * phi, grid))
    return SpectralResult(
        lambda1=float(rho), eigenfunction=phi, iterations=it, residual=res_norm
    )


@dataclass(frozen=True)
class WeightedSpectrum:
    """First eigenvalues of both weighted operators and their minimum."""

    value: float
    first_a: SpectralResult
    first_b: SpectralResult


def lambda_tilde(a: WeightProfile, b: WeightProfile,
                 grid: RadialGrid) -> WeightedSpectrum:
    ra = first_eigenpair(a, grid)
    rb = first_eigenpair(b, grid)
    return WeightedSpectrum(value=min(ra.lambda1, rb.lambda1), first_a=ra, first_b=rb)


def coupling_threshold(spec: WeightedSpectrum, grid: RadialGrid) -> float:
    """The coupling strength above which the eigenfunction pair certifies a
    nonpositive energy: (|phi_a|_q |phi_b|_q / int phi_a phi_b)
    * |Omega|^(1 - 2/q) * max(lambda_a, lambda_b)."""
    from .energy import critical_exponent, lq_norm  # local import: energy imports this module

    phi_a = spec.first_a.eigenfunction
    phi_b = spec.first_b.eigenfunction
    q = critical_exponent(grid.dimension)
    overlap = integrate(phi_a * phi_b, grid)
    vol = grid.volume
    return (
        lq_norm(phi_a, grid) * lq_norm(phi_b, grid) / overlap
        * vol ** (1.0 - 2.0 / q)
        * max(spec.first_a.lambda1, spec.first_b.lambda1)
    )


def eigenfunction_pair_energy(
    a: WeightProfile,
    b: WeightProfile,
    lam: float,
    grid: RadialGrid,
    spec: WeightedSpectrum | None = None,
) -> float:
    """Energy of the q-normalized eigenfunction pair at coupling lam.

    Contract: once lam reaches the coupling threshold the returned value is
    nonpositive up to discretization tolerance.  Below the threshold the
    call raises (informative, not fatal): the certificate does not apply.
    """
    from .energy import FieldPair, energy  # local import to avoid cycles

    if spec is None:
        spec = lambda_tilde(a, b, grid)
    thr = coupling_threshold(spec, grid)
    if lam < thr * (1.0 - 1e-12):
        raise ThresholdNotReached(
            f"coupling {lam} below the eigenfunction-pair threshold {thr}",
            threshold=thr,
        )
    pair = FieldPair(u=spec.first_a.eigenfunction, v=spec.first_b.eigenfunction)
    return energy(pair, a, b, lam, grid).value
