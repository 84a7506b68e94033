"""Shared fixtures (grids and weight profiles reused across test modules),
and the reference formulas the tests compare the package against."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import solve_banded

from critvar import (FieldPair, FlowParams, RadialGrid, WeightProfile,
                     assemble_operator, build_grid, critical_exponent, integrate)
from critvar.errors import DegeneratePair, NumericFault
from critvar.grid import nodal_derivative


@pytest.fixture(scope="session")
def grid5():
    """Uniform N=5 grid, moderate resolution."""
    return build_grid(5, 1.0, 800)


@pytest.fixture(scope="session")
def grid5_fine():
    return build_grid(5, 1.0, 2000)


@pytest.fixture(scope="session")
def grid4():
    return build_grid(4, 1.0, 800)


@pytest.fixture(scope="session")
def grid5_geo():
    """Geometrically graded N=5 grid resolving deep concentration scales."""
    return build_grid(5, 1.0, 3000, grading="geometric", ratio=1.004)


@pytest.fixture(scope="session")
def unit_weight():
    return WeightProfile(1.0)


@pytest.fixture(scope="session")
def quad_weight():
    """gamma0 = 1 with unit quadratic growth."""
    return WeightProfile(1.0, 2.0, 1.0)


@pytest.fixture(scope="session")
def quartic_weight():
    return WeightProfile(1.0, 4.0, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


def smooth_dirichlet_field(grid, rng, modes=8):
    """Random smooth radial field vanishing at the boundary."""
    r = grid.nodes
    u = np.zeros_like(r)
    for j in range(1, modes + 1):
        u += rng.standard_normal() / j * np.sin(j * np.pi * r / grid.radius)
    u[-1] = 0.0
    return u


def ball_volume(dim, radius):
    return math.pi ** (dim / 2.0) * radius ** dim / math.gamma(dim / 2.0 + 1.0)


def radial_moment_quadrature(s, p):
    """I(s, p) by adaptive quadrature after r = tan(t), a route independent
    of the Beta closed form: the integrand becomes sin^s(t) cos^(2p-s-2)(t),
    bounded on [0, pi/2) whenever the integral converges."""
    from scipy import integrate as quadrature

    def f(t):
        return math.sin(t) ** s * math.cos(t) ** (2.0 * p - s - 2.0)

    val, _err = quadrature.quad(f, 0.0, 0.5 * math.pi, limit=200)
    return val


def coupling_threshold(eig_a, eig_b, grid):
    """The coupling at and above which the q-normalized pair of the
    eigenfunctions of eig_a and eig_b (`first_eigenpair` results) has
    nonpositive energy: (|phi_a|_q |phi_b|_q / int phi_a phi_b)
    * |Omega|^(1 - 2/q) * max(lambda_a, lambda_b)."""
    phi_a = eig_a.eigenfunction
    phi_b = eig_b.eigenfunction
    q = critical_exponent(grid.dimension)
    volume = float(np.sum(grid.masses))
    return (
        lq_norm(phi_a, grid) * lq_norm(phi_b, grid) / integrate(phi_a * phi_b, grid)
        * volume ** (1.0 - 2.0 / q)
        * max(eig_a.lambda1, eig_b.lambda1)
    )


def weighted_gradient_energy(u: np.ndarray, w: WeightProfile, grid: RadialGrid) -> float:
    """int w(r) |u'(r)|^2 r^(N-1) sigma dr by cell-face differences: sum
    c_f (du_f)^2 over the weight operator's conductances, the innermost
    cell skipped, as the flow's kernel sums it (minimizer._kernel).
    Raises IndefiniteWeight unless w is finite and positive on the grid."""
    u = grid.check_shape(u)
    if not np.all(np.isfinite(u)):
        raise NumericFault("non-finite field samples")
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
    """The normalized coupled energy of a pair evaluated one shot, scale-
    invariant per component: the reference the tests hold the flow's
    kernel (minimizer._kernel) and asymptotics.energy_curves against.

        E(u, v) = (1/2) int a |grad u|^2 / |u|_q^2
                + (1/2) int b |grad v|^2 / |v|_q^2
                - lam * int u v / (|u|_q |v|_q)
    """
    grad_a, grad_b, uv, nu, nv = _pair_terms(pair.u, pair.v, a, b, grid)
    coupling = lam * uv / (nu * nv)
    value = grad_a + grad_b - coupling
    if not np.isfinite(value):
        raise NumericFault("non-finite energy")
    return EnergyReport(grad_a, grad_b, coupling, value)

def eigenfunction_pair_energy(a, b, lam, grid, eig_a, eig_b):
    """Energy of the pair of the eigenfunctions of eig_a and eig_b
    (`first_eigenpair` results) at coupling lam."""
    pair = FieldPair(u=eig_a.eigenfunction, v=eig_b.eigenfunction)
    return energy(pair, a, b, lam, grid).value


def hardy_sides(u, grid):
    """Both sides of int r^2 |u'|^2 >= (N/2)^2 int u^2, the Hardy
    inequality for Dirichlet radial fields."""
    du = nodal_derivative(u, grid)
    return (integrate(grid.nodes ** 2 * du * du, grid),
            (grid.dimension / 2.0) ** 2 * integrate(u * u, grid))


def lagrange_multipliers(pair, a, b, lam, grid):
    """Multipliers of the two unit-norm constraints for a normalized pair:
    int a|u'|^2 - lam int uv and its v-analog."""
    coupling = lam * integrate(pair.u * pair.v, grid)
    return (weighted_gradient_energy(pair.u, a, grid) - coupling,
            weighted_gradient_energy(pair.v, b, grid) - coupling)


def el_residual(pair, l1, l2, a, b, lam, grid):
    """Discrete L2 norm of both residuals of the coupled system
    -div(a grad u) - lam v = l1 |u|^(q-2) u and its v-analog."""
    q = critical_exponent(grid.dimension)
    m = grid.masses[1:-1]
    u, v = pair.u[1:-1], pair.v[1:-1]
    ru = assemble_operator(a, grid).apply(u) / m - lam * v - l1 * np.abs(u) ** (q - 2.0) * u
    rv = assemble_operator(b, grid).apply(v) / m - lam * u - l2 * np.abs(v) ** (q - 2.0) * v
    return float(np.sqrt(np.dot(m, ru * ru) + np.dot(m, rv * rv)))


def concentration_diagnostic(u, delta, grid):
    """Fraction of the critical-norm mass of u inside radius delta."""
    dens = grid.masses * np.abs(u) ** critical_exponent(grid.dimension)
    return float(np.sum(dens[grid.nodes <= delta]) / np.sum(dens))


def bordered_step_reference(rows, mults, rhs0, kern):
    """The bordered Newton solve with R + 1 right-hand sides: rhs0 and each
    row's f_k = M|x_k|^(q-2) x_k, all solved (see minimizer._bordered_step,
    which derives J^-1 f_k of one row from the others)."""
    ops, lam, m, q = kern.ops, kern.lam, kern.m, kern.q
    r, n = len(rows), m.size
    ab = np.zeros((2 * r + 1, r * n))
    rhs = np.zeros((r * n, r + 1), order="F")
    for k, (xk, lk, op, bk) in enumerate(zip(rows, mults, ops, rhs0)):
        xi = xk[1:-1]
        w = m * np.abs(xi) ** (q - 2.0)
        d = ab[r, k::r]
        d[0] = op.c[0]
        np.add(op.c[:-1], op.c[1:], out=d[1:])
        d -= (q - 1.0) * lk * w
        ab[0, r + k::r] = ab[2 * r, k:r * (n - 1):r] = -op.c[:-1]
        rhs[k::r, 0] = bk
        rhs[k::r, 1 + k] = w * xi
    if r == 1:
        ab[1] -= lam * m
    else:
        ab[1, 1::2] = ab[3, 0::2] = -lam * m
    sol = solve_banded((r, r), ab, rhs)
    f = [rhs[j::r, 1 + j] for j in range(r)]
    schur = np.array([[f[j] @ sol[j::r, 1 + k] for k in range(r)]
                      for j in range(r)])
    fb = np.array([f[j] @ sol[j::r, 0] for j in range(r)])
    dl = fb / schur[0] if r == 1 else np.linalg.solve(schur, fb)
    dx = sum(sol[:, 1 + k] * dl[k] for k in range(r)) - sol[:, 0]
    return [dx[k::r] for k in range(r)]


@pytest.fixture(scope="session")
def quick_flow():
    return FlowParams(max_iters=8000, grad_tol=1e-6, stall_window=1500)
