"""First Dirichlet eigenpair of the weighted radial operator -div(w grad).

In radial coordinates the operator reads -r^(1-N) (r^(N-1) w u')'.  It is
discretized in flux form on the interior nodes: the face between nodes i
and i+1 carries the conductance

    c_{i+1/2} = sigma * w(r_{i+1/2}) * r_{i+1/2}^(N-1) / h_i,

the weight evaluated at the arithmetic face midpoint.  The node mass is
the same cell mass the quadrature uses, so Rayleigh quotients of the
discrete operator coincide exactly with quadrature energy ratios.  The
origin carries zero flux (radial regularity); the boundary is Dirichlet.

assemble_operator is the one place conductances are formed: it keeps one
read-only operator on the grid per distinct conductance array c, so
weights that assemble to the same c share it, and the descent flow, the
eigen-solve, the Euler-Lagrange residual and the gradient energy read it.
With x_0..x_{n-1} the interior values, x_n = 0 and the face fluxes
F_0 = 0, F_{j+1} = c_j (x_{j+1} - x_j), (K x)_j = F_j - F_{j+1}.  So
K x = b needs no factorization: F_{j+1} = -sum_{i<=j} b_i and x_j =
sum_{k>=j} (sum_{i<=k} b_i) / c_k, two running sums.  In exact arithmetic this is K's LDL^T
factor with l = -1 and d = c, which an LDL^T routine only rounds its way
to through (c_{j-1} + c_j) - c_{j-1}.  The gradient energy is sum c
(x_{j+1} - x_j)^2; the descent flow takes it as sum F_{j+1} (x_{j+1} -
x_j).  K x has one form, the difference of those same fluxes
(_flux_difference).  The flow reads it from the fluxes its energy left,
so one pass over the faces serves both; apply forms the fluxes first.

first_eigenpair takes 1 / lambda_1 as the largest eigenvalue of K^-1 M,
self-adjoint in the M inner product, by Lanczos: 8 to 10 running-sum
solves, where plain inverse iteration, which gains lambda_1 / lambda_2 per
solve, needs about 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IndefiniteWeight, SpectralStall
from .grid import RadialGrid, integrate
from .weights import WeightProfile

_EIG_TOL = 1e-11            # Lanczos: relative Ritz value change (residual: 100x)
_EIG_MAX_ITERS = 500        # Lanczos steps, one solve each
_RITZ_FROM = 6              # the first step whose Ritz pair may end the iteration
_BASIS = 16                 # Lanczos vectors held at first; doubled when full


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetric positive-definite flux operator on interior nodes 1..n-1 from
    its face conductances c, solved by the module docstring's running sums;
    its arrays are read-only, as every caller shares it.  It compares and
    hashes by identity: assemble_operator keeps one per conductance array."""

    c: np.ndarray                               # c_{i+1/2} on faces 1..n-1
    _inv_c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = self.c
        with np.errstate(divide="ignore", over="ignore"):
            inv_c = 1.0 / c                     # overflows for a subnormal c
        if not np.all(np.isfinite(c) & (c > 0.0) & np.isfinite(inv_c)):
            raise IndefiniteWeight("conductances (weight at cell faces) must be finite, "
                                   "> 0 and not subnormal")
        for name, arr in (("c", c), ("_inv_c", inv_c)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.c.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """K x as the difference of x's face fluxes."""
        f = np.zeros(x.size + 1)
        np.subtract(x[1:], x[:-1], out=f[1:-1])
        f[-1] = -x[-1]                          # x_n = 0 at the boundary
        f[1:] *= self.c
        return self._flux_difference(f, np.empty_like(x))

    @staticmethod
    def _flux_difference(f, out):
        """K x into `out` from the face fluxes f of x (F of the module
        docstring, one value longer than x): out[j] = f[j] - f[j+1]."""
        return np.subtract(f[:-1], f[1:], out=out)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """K x = rhs; raises ValueError unless rhs is a finite vector of size n-1."""
        rhs = np.asarray_chkfinite(rhs)
        if rhs.shape != (self.size,):
            raise ValueError("shapes of operator and rhs are not compatible")
        return self._solve(rhs)

    def _solve(self, rhs):
        """Unchecked solve: rhs must be finite and of the operator's size;
        the sum over k >= j runs in place on the reversed view."""
        x = np.add.accumulate(rhs)
        x *= self._inv_c
        np.add.accumulate(x[::-1], out=x[::-1])
        return x


def assemble_operator(w: WeightProfile, grid: RadialGrid) -> TridiagonalOperator:
    """Flux-form stiffness for -div(w grad) with Dirichlet boundary, kept on
    the grid under the weight and under the bytes of its conductances, so
    that weights with bit-identical c (equal weights, or constant weights
    that differ only in an exponent they never use) get one object.

    The quadratic form x.K.x equals the cell-face gradient energy of the
    field extended by zero at the boundary.  Raises IndefiniteWeight (and
    caches nothing) unless w is finite and positive at the nodes and faces.
    """
    def build():
        faces = grid.faces[1:]                    # r_{i+1/2}, i = 1..n-1
        # a value past the float range is refused below, or by the operator via c
        with np.errstate(over="ignore", invalid="ignore"):
            nodes_w = np.asarray(w(grid.nodes), dtype=float)
            wf = np.asarray(w(faces), dtype=float)
            c = grid.surface_factor * wf * faces ** (grid.dimension - 1) / grid.spacings[1:]
        if not np.all(np.isfinite(nodes_w) & (nodes_w > 0.0)):
            raise IndefiniteWeight("weight must be finite and strictly positive on the grid")
        return grid._cached(("operator", c.tobytes()), lambda: TridiagonalOperator(c))
    return grid._cached(("operator", w), build)


@dataclass(frozen=True)
class SpectralResult:
    lambda1: float
    eigenfunction: np.ndarray   # full node array, positive, int phi^2 = 1; read-only
    iterations: int
    residual: float             # |K phi - lambda M phi| in the M^-1 norm


def _extrapolate_origin(phi: np.ndarray, grid: RadialGrid) -> float:
    """Quadratic regularity fit u = u0 + c r^2 through the two first nodes."""
    r1, r2 = grid.nodes[1], grid.nodes[2]
    return float((phi[1] * r2 ** 2 - phi[2] * r1 ** 2) / (r2 ** 2 - r1 ** 2))


def first_eigenpair(w: WeightProfile, grid: RadialGrid) -> SpectralResult:
    """Smallest eigenvalue of K x = lambda M x by Lanczos on K^-1 M, one
    running-sum solve per step (_lanczos).

    Convergence is declared on consecutive Ritz values together with the
    Ritz vector's M^-1-norm eigen-residual; lambda1 is that vector's
    Rayleigh quotient, and the eigenfunction is sign-fixed positive and
    L2-normalized.  It runs once per operator, kept on the grid, so weights
    that assemble_operator gives one operator share one read-only result.
    """
    op = assemble_operator(w, grid)
    return grid._cached(("spectrum", op), lambda: _lanczos(op, grid))


def _rescale(v: np.ndarray, size: float) -> int:
    """Divide v in place by 2**e, size = f 2**e with 1/2 <= |f| < 1, when
    |e| >= 256 (so that v's squares stay finite and normal); returns e, else 0."""
    e = math.frexp(size)[1]
    if abs(e) < 256:
        return 0
    np.ldexp(v, -e, out=v)
    return e


def _lanczos(op: TridiagonalOperator, grid: RadialGrid) -> SpectralResult:
    """first_eigenpair's iteration: Lanczos on K^-1 M in the M inner product
    from 1 - (r/R)^2, one solve and the three-term recurrence per step.
    t, the projection of K^-1 M on the basis, is tridiagonal, and its
    largest eigenvalue theta tends to 2^-e / lambda_1, 2^e being the power
    of two that _rescale divides the first solve's output by, and every
    later one's.  From step _RITZ_FROM on, once two consecutive theta agree
    to _EIG_TOL, the Ritz vector x is formed, and the iteration ends if its
    M^-1-norm residual |K x - rho M x|, rho = x.K.x, is at most 100 _EIG_TOL
    rho.  The residual is _rescale'd before its norm is taken.
    gamma0 = 1e+-300 needs both scalings; a power of two is exact, so the
    norms round as unscaled ones."""
    m = grid.masses[1:-1]
    inv_m = 1.0 / m
    basis = np.empty((_BASIS, op.size))         # M-orthonormal rows, grown when full
    t = np.zeros((_BASIS, _BASIS))
    # 1 - (r/R)^2 has no jump at R to resolve: a step fewer than a constant
    q = 1.0 - (grid.nodes[1:-1] / grid.radius) ** 2
    basis[0] = q / math.sqrt(float(np.dot(m, q * q)))
    theta_old = math.inf
    for k in range(1, _EIG_MAX_ITERS + 1):
        mq = m * basis[k - 1]
        w = op.solve(mq)
        if k == 1:
            e = _rescale(w, w.max())
        elif e:
            np.ldexp(w, -e, out=w)
        t[k - 1, k - 1] = np.dot(mq, w)
        lo = max(k - 2, 0)
        w -= t[k - 1, lo:k] @ basis[lo:k]     # alpha_k q_k + beta_(k-1) q_(k-1)
        beta = math.sqrt(float(np.dot(m, w * w)))
        if k >= _RITZ_FROM - 1:
            ritz, vectors = np.linalg.eigh(t[:k, :k])
            theta = ritz[-1]
            # beta |s_k| / theta, the Ritz pair's relative residual for K^-1 M,
            # bounds x's for K below (to second order): x waits until it passes
            if (k >= _RITZ_FROM and abs(theta - theta_old) <= _EIG_TOL * theta
                    and beta * abs(vectors[-1, -1]) <= 100.0 * _EIG_TOL * theta):
                x = vectors[:, -1] @ basis[:k]
                x /= np.sqrt(np.dot(m, x * x))
                kx = op.apply(x)
                rho = float(np.dot(x, kx))       # x is M-normalized
                res = kx - rho * m * x
                er = _rescale(res, rho)
                res_norm = math.ldexp(float(np.sqrt(np.dot(res * res, inv_m))), er)
                if res_norm <= 100.0 * _EIG_TOL * abs(rho):
                    break
            theta_old = theta
        if k == basis.shape[0]:
            basis = np.concatenate((basis, np.empty_like(basis)))
            t = np.pad(t, (0, k))
        t[k - 1, k] = t[k, k - 1] = beta
        np.divide(w, beta, out=basis[k])
    else:
        theta = np.linalg.eigvalsh(t[:k, :k])[-1]
        raise SpectralStall(
            f"Lanczos iteration did not converge in {_EIG_MAX_ITERS} steps",
            last_rayleigh=math.ldexp(1.0 / theta, -e),
        )
    if np.sum(x) < 0.0:
        x = -x
    phi = np.zeros(grid.nodes.size)
    phi[1:-1] = x
    phi[0] = _extrapolate_origin(phi, grid)
    phi /= np.sqrt(integrate(phi * phi, grid))
    phi.flags.writeable = False
    return SpectralResult(
        lambda1=float(rho), eigenfunction=phi, iterations=k, residual=res_norm
    )
