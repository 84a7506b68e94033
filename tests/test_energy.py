"""Field pairs, norms, and the normalized coupled energy."""

import importlib
import math

import numpy as np
import pytest

from critvar import (FieldPair, WeightProfile, build_grid, critical_exponent, descend,
                     dirichlet_field, integrate, sweep_minimize, unit_sphere_area)
from critvar.errors import (BadDomain, DegeneratePair, IndefiniteWeight, NumericFault,
                            ShapeMismatch)
from conftest import (energy, lq_norm, smooth_dirichlet_field,
                      weighted_gradient_energy)


def test_critical_exponent_values():
    assert critical_exponent(4) == pytest.approx(4.0, rel=1e-15)
    assert critical_exponent(5) == pytest.approx(10.0 / 3.0, rel=1e-15)
    assert critical_exponent(6) == pytest.approx(3.0, rel=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_critical_exponent_below_n3_raises_bad_domain(dim):
    # 2N/(N-2) divides by zero at N = 2 and is negative at N = 1
    with pytest.raises(BadDomain):
        critical_exponent(dim)
    if dim == 2:
        grid, w = build_grid(2, 1.0, 100), WeightProfile(1.0)
        with pytest.raises(BadDomain):
            descend(w, w, 1.0, grid)
        with pytest.raises(BadDomain):
            sweep_minimize([1.0], w, w, grid)


def test_pair_validation(grid5):
    u = np.ones_like(grid5.nodes)
    with pytest.raises(ValueError):
        FieldPair(u=u, v=u)  # boundary value not zero
    u2 = dirichlet_field(u, grid5)
    with pytest.raises(ShapeMismatch):
        FieldPair(u=u2, v=np.zeros(3))
    FieldPair(u=u2, v=u2.copy())


def test_gradient_energy_parabola(grid5):
    # u = 1 - r^2, constant weight: int 4 r^2 dx = 4 sigma / (N + 2)
    from critvar import WeightProfile

    u = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    exact = 4.0 * unit_sphere_area(5) / 7.0
    val = weighted_gradient_energy(u, WeightProfile(1.0), grid5)
    assert val == pytest.approx(exact, rel=1e-5)


def test_gradient_energy_weighted(grid5, quad_weight):
    # weight 1 + r^2, u = 1 - r^2: int (1 + r^2) 4 r^2 dx
    u = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    sigma = unit_sphere_area(5)
    exact = 4.0 * sigma * (1.0 / 7.0 + 1.0 / 9.0)
    val = weighted_gradient_energy(u, quad_weight, grid5)
    assert val == pytest.approx(exact, rel=1e-5)


def _gradient_energy_reference(u, w, grid):
    """The conductance sum written out, sampling w on every call:
    sum c_f (du_f)^2 with c_f = sigma w(r_f) r_f^(N-1) / h_f."""
    faces = grid.faces[1:]
    wf = np.asarray(w(faces), dtype=float)
    c = grid.surface_factor * wf * faces ** (grid.dimension - 1) / grid.spacings[1:]
    d = np.diff(u)[1:]
    return float(np.dot(c * d, d))


def test_gradient_energy_matches_reference_exactly(grid5, grid4, rng):
    # the face factors are kept per (weight, grid); the sums must stay
    # bitwise those of the reference, whatever order the calls come in
    quad = WeightProfile(1.0, 2.0, 1.0)
    quartic = WeightProfile(1.0, 4.0, 1.0)
    u5 = smooth_dirichlet_field(grid5, rng)
    u4 = smooth_dirichlet_field(grid4, rng)
    for _ in range(2):
        for w in (quad, quartic):
            assert weighted_gradient_energy(u5, w, grid5) == \
                _gradient_energy_reference(u5, w, grid5)
            assert weighted_gradient_energy(u4, w, grid4) == \
                _gradient_energy_reference(u4, w, grid4)


def test_gradient_energy_fresh_weights_never_stale(rng):
    grid = build_grid(5, 1.0, 300)
    u = smooth_dirichlet_field(grid, rng)
    # each round drops the previous weight; a new one, with equal or other
    # parameters, must never be served the face factors of an old one
    for coeff in (1.0, 1.0, 2.0, 1.0, 3.0):
        w = WeightProfile(1.0, 2.0, coeff)
        assert weighted_gradient_energy(u, w, grid) == \
            _gradient_energy_reference(u, w, grid)


@pytest.mark.parametrize("where", ["faces", "nodes"])
def test_non_positive_weight_rejected(where, rng):
    grid = build_grid(5, 1.0, 200)
    # theta dips to -10 / x^2 in a spike narrower than a cell: w(x) < 0 at
    # one face (or node) x, and w > 0 at every node (or face)
    x, half = getattr(grid, where)[100], 0.25 * grid.spacings[100]
    w = WeightProfile(1.0, 2.0, 1.0, ((0.0, x - half, x, x + half),
                                      (0.0, 0.0, -10.0 / x ** 2, 0.0)))
    u = smooth_dirichlet_field(grid, rng)
    with pytest.raises(IndefiniteWeight):
        weighted_gradient_energy(u, w, grid)
    with pytest.raises(IndefiniteWeight):
        energy(FieldPair(u=u, v=u.copy()), w, w, 1.0, grid)


def test_lq_norm_matches_reference_exactly(grid5, grid4, rng):
    # the in-place kernel keeps the arithmetic of the one-line formula
    for grid in (grid5, grid4, build_grid(6, 1.0, 300)):
        q = critical_exponent(grid.dimension)
        for _ in range(3):
            u = smooth_dirichlet_field(grid, rng)
            assert lq_norm(u, grid) == \
                float(integrate(np.abs(u) ** q, grid) ** (1.0 / q))


def test_lq_norm_against_quadrature(grid5):
    from scipy.integrate import quad

    q = critical_exponent(5)
    ref, _ = quad(lambda r: (1.0 - r ** 2) ** q * r ** 4, 0.0, 1.0)
    ref = (grid5.surface_factor * ref) ** (1.0 / q)
    u = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    assert lq_norm(u, grid5) == pytest.approx(ref, rel=1e-5)


def test_energy_scale_invariance(grid5, quad_weight, rng):
    u = smooth_dirichlet_field(grid5, rng)
    v = smooth_dirichlet_field(grid5, rng)
    base = energy(FieldPair(u=u, v=v), quad_weight, quad_weight, 2.0, grid5)
    scaled = energy(FieldPair(u=3.0 * u, v=0.2 * v), quad_weight, quad_weight,
                    2.0, grid5)
    assert scaled.value == pytest.approx(base.value, rel=1e-12)
    assert scaled.grad_a == pytest.approx(base.grad_a, rel=1e-12)
    assert scaled.coupling == pytest.approx(base.coupling, rel=1e-12)


def test_energy_term_decomposition(grid5, unit_weight, rng):
    u = smooth_dirichlet_field(grid5, rng)
    v = smooth_dirichlet_field(grid5, rng)
    rep = energy(FieldPair(u=u, v=v), unit_weight, unit_weight, 1.5, grid5)
    nu, nv = lq_norm(u, grid5), lq_norm(v, grid5)
    assert rep.value == pytest.approx(rep.grad_a + rep.grad_b - rep.coupling,
                                      abs=1e-14)
    assert rep.coupling == pytest.approx(
        1.5 * integrate(u * v, grid5) / (nu * nv), rel=1e-14)


def test_degenerate_pair_raises(grid5, unit_weight):
    u = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    zero = np.zeros_like(u)
    with pytest.raises(DegeneratePair):
        energy(FieldPair(u=u, v=zero), unit_weight, unit_weight, 1.0, grid5)


def test_non_finite_field_rejected(grid5, unit_weight):
    u = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    u[5] = math.nan
    with pytest.raises(NumericFault):
        weighted_gradient_energy(u, unit_weight, grid5)


def test_derivatives_of_smooth_field(grid5):
    pair = FieldPair(u=dirichlet_field(1.0 - grid5.nodes ** 2, grid5),
                     v=dirichlet_field((1.0 - grid5.nodes ** 2) ** 2, grid5))
    du, dv = pair.derivatives(grid5)
    assert du[0] == 0.0 and dv[0] == 0.0
    interior = slice(1, -1)
    assert np.allclose(du[interior], -2.0 * grid5.nodes[interior], atol=1e-6)


def test_equal_rows_are_differentiated_once(monkeypatch, grid5):
    # a converged symmetric pair holds v as a copy of u
    module = importlib.import_module("critvar.grid")
    calls = []
    derivative = module.nodal_derivative

    def counted(f, grid):
        calls.append(1)
        return derivative(f, grid)

    monkeypatch.setattr(module, "nodal_derivative", counted)
    u = dirichlet_field(1.0 - grid5.nodes ** 2, grid5)
    du, dv = FieldPair(u=u, v=u.copy()).derivatives(grid5)
    assert du is dv and len(calls) == 1
    du, dv = FieldPair(u=u, v=0.5 * u).derivatives(grid5)
    assert len(calls) == 3 and np.array_equal(dv, 0.5 * du)
