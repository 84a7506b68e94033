"""Shared fixtures (grids and weight profiles reused across test modules),
and the reference formulas the tests compare the package against."""

import math

import numpy as np
import pytest

from critvar import (FieldPair, FlowParams, WeightProfile, build_grid,
                     critical_exponent, energy, integrate, lq_norm)
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


def coupling_threshold(spec, grid):
    """The coupling at and above which the q-normalized eigenfunction pair
    of `spec` has nonpositive energy: (|phi_a|_q |phi_b|_q / int phi_a phi_b)
    * |Omega|^(1 - 2/q) * max(lambda_a, lambda_b)."""
    phi_a = spec.first_a.eigenfunction
    phi_b = spec.first_b.eigenfunction
    q = critical_exponent(grid.dimension)
    volume = float(np.sum(grid.masses))
    return (
        lq_norm(phi_a, grid) * lq_norm(phi_b, grid) / integrate(phi_a * phi_b, grid)
        * volume ** (1.0 - 2.0 / q)
        * max(spec.first_a.lambda1, spec.first_b.lambda1)
    )


def eigenfunction_pair_energy(a, b, lam, grid, spec):
    """Energy of the eigenfunction pair of `spec` at coupling lam."""
    pair = FieldPair(u=spec.first_a.eigenfunction, v=spec.first_b.eigenfunction)
    return energy(pair, a, b, lam, grid).value


def hardy_sides(u, grid):
    """Both sides of int r^2 |u'|^2 >= (N/2)^2 int u^2, the Hardy
    inequality for Dirichlet radial fields."""
    du = nodal_derivative(u, grid)
    return (integrate(grid.nodes ** 2 * du * du, grid),
            (grid.dimension / 2.0) ** 2 * integrate(u * u, grid))


@pytest.fixture(scope="session")
def quick_flow():
    return FlowParams(max_iters=8000, grad_tol=1e-6, stall_window=1500)
