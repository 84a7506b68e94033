"""Shared fixtures: grids and weight profiles reused across test modules."""

import numpy as np
import pytest

from critvar import FlowParams, WeightProfile, build_grid


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


@pytest.fixture(scope="session")
def quick_flow():
    return FlowParams(max_iters=8000, grad_tol=1e-6, stall_window=1500)
