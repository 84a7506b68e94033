"""Radial grid construction and quadrature."""

import math

import numpy as np
import pytest

from critvar import RadialGrid, build_grid, integrate, unit_sphere_area
from critvar.errors import BadDomain, GridTooCoarse, ShapeMismatch
from critvar.grid import nodal_derivative
from conftest import ball_volume


def test_unit_sphere_areas():
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)
    assert unit_sphere_area(5) == pytest.approx(8.0 * math.pi ** 2 / 3.0, rel=1e-15)


def test_ball_volumes_exact():
    assert ball_volume(4, 1.0) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-15)
    assert ball_volume(5, 1.0) == pytest.approx(8.0 * math.pi ** 2 / 15.0, rel=1e-15)
    assert ball_volume(4, 2.0) == pytest.approx(math.pi ** 2 / 2.0 * 16.0, rel=1e-15)


@pytest.mark.parametrize("dim", [4, 5, 6])
@pytest.mark.parametrize("grading,ratio", [("uniform", None), ("geometric", 1.01)])
def test_volume_matches_closed_form(dim, grading, ratio):
    grid = build_grid(dim, 1.0, 400, grading=grading, ratio=ratio)
    # cell masses are exact per cell; only the innermost O(h^N) sliver is dropped
    assert np.sum(grid.masses) == pytest.approx(ball_volume(dim, 1.0), rel=1e-9)


def test_integrate_monomial_second_order():
    # int r^2 dx over the unit ball = sigma / (N + 2)
    dim = 5
    exact = unit_sphere_area(dim) / (dim + 2)
    errs = []
    for n in (200, 400, 800):
        g = build_grid(dim, 1.0, n)
        errs.append(abs(integrate(g.nodes ** 2, g) - exact))
    order = math.log2(errs[0] / errs[1])
    assert order > 1.8
    assert math.log2(errs[1] / errs[2]) > 1.8


def test_integrate_smooth_field(grid5):
    # int cos(pi r / 2) over the ball, reference from dense quadrature
    from scipy.integrate import quad

    ref, _ = quad(lambda r: math.cos(math.pi * r / 2.0) * r ** 4, 0.0, 1.0)
    ref *= grid5.surface_factor
    val = integrate(np.cos(math.pi * grid5.nodes / 2.0), grid5)
    assert val == pytest.approx(ref, rel=1e-5)


def test_geometric_nodes_cluster_at_origin():
    g = build_grid(5, 1.0, 500, grading="geometric", ratio=1.01)
    assert g.spacings[0] < g.spacings[-1]
    assert np.allclose(np.diff(g.spacings) / g.spacings[:-1], 0.01, rtol=1e-8)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 1.0


def test_masses_and_weights_consistent(grid5):
    assert np.all(grid5.masses[1:] > 0.0)
    assert grid5.masses[0] == 0.0  # origin node carries no quadrature mass


def test_uniform_grading_takes_no_ratio():
    # a ratio a uniform grid ignores would still change the run's config hash
    with pytest.raises(BadDomain, match="ratio"):
        build_grid(5, 1.0, 100, ratio=1.01)


def test_bad_domain_errors():
    with pytest.raises(BadDomain):
        build_grid(1, 1.0, 100)
    with pytest.raises(BadDomain):
        build_grid(5, -1.0, 100)
    with pytest.raises(BadDomain):
        build_grid(5, 1.0, 100, grading="geometric")  # ratio missing
    with pytest.raises(BadDomain):
        build_grid(5, 1.0, 100, grading="weird")
    with pytest.raises(GridTooCoarse):
        build_grid(5, 1.0, 8)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_radius_or_ratio_rejected(value):
    # both once failed as "nodes must be strictly increasing", an infinite
    # radius after a RuntimeWarning
    with pytest.raises(BadDomain, match="radius"):
        build_grid(5, value, 100)
    with pytest.raises(BadDomain, match="ratio"):
        build_grid(5, 1.0, 100, grading="geometric", ratio=value)


def test_check_shape(grid5):
    with pytest.raises(ShapeMismatch):
        grid5.check_shape(np.zeros(3))
    with pytest.raises(ShapeMismatch):
        integrate(np.zeros(grid5.nodes.size + 1), grid5)


def test_nodes_must_start_at_zero():
    nodes = np.linspace(0.1, 1.0, 50)
    with pytest.raises(BadDomain):
        RadialGrid(dimension=5, radius=1.0, nodes=nodes,
                   masses=np.ones_like(nodes), surface_factor=unit_sphere_area(5))


@pytest.mark.parametrize("args", [
    (5, 1.0, 16),                       # equal spacings: np.gradient's scalar branch
    (5, 2.0, 1024),
    (4, 1.0, 200),                      # linspace spacings that differ in the last bits
    (5, 1.0, 300, "geometric", 1.01),
    (5, 1.0, 3000, "geometric", 1.004),
])
def test_nodal_derivative_is_np_gradient_bit_for_bit(args, rng):
    grid = build_grid(*args)
    h = np.diff(grid.nodes)
    assert np.all(h == h[0]) == (args[2] in (16, 1024))
    for scale in (1e-6, 1.0, 1e6):
        f = scale * rng.standard_normal(grid.nodes.size)
        ref = np.gradient(f, grid.nodes, edge_order=2)
        ref[0] = 0.0
        assert np.array_equal(nodal_derivative(f, grid).view(np.int64), ref.view(np.int64))


def test_derivative_stencil_is_built_once_and_read_only(monkeypatch, rng):
    import critvar.grid

    grid = build_grid(5, 1.0, 300, grading="geometric", ratio=1.01)
    built = []
    stencil = critvar.grid._stencil

    def counted(h):
        built.append(1)
        return stencil(h)

    monkeypatch.setattr(critvar.grid, "_stencil", counted)
    for _ in range(3):
        nodal_derivative(rng.standard_normal(grid.nodes.size), grid)
    assert len(built) == 1
    (a, b, c), _ = grid._memo["stencil"]
    for arr in (a, b, c):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(ShapeMismatch):
        nodal_derivative(np.zeros(grid.nodes.size - 1), grid)
