"""Flux-form operator assembly and the first weighted eigenpair."""

import math

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from critvar import (WeightProfile, assemble_operator, build_grid,
                     coupling_threshold, dirichlet_field,
                     eigenfunction_pair_energy, first_eigenpair, integrate,
                     lambda_tilde, weighted_gradient_energy)
from critvar.errors import IndefiniteWeight, SpectralStall, ThresholdNotReached
from conftest import smooth_dirichlet_field

# first zero of the Bessel functions J_{N/2-1}; lambda_1 of the Dirichlet
# Laplacian on the unit ball is its square
BESSEL_ZERO = {4: 3.8317059702075123, 5: 4.493409457909064}


def test_quadratic_form_matches_gradient_energy(grid5, quad_weight, rng):
    u = smooth_dirichlet_field(grid5, rng)
    op = assemble_operator(quad_weight, grid5)
    form = op.quadratic_form(u[1:-1])
    direct = weighted_gradient_energy(u, quad_weight, grid5)
    assert form == pytest.approx(direct, rel=1e-12)


def test_apply_solve_roundtrip(grid5, unit_weight, rng):
    op = assemble_operator(unit_weight, grid5)
    x = rng.standard_normal(op.size)
    assert np.allclose(op.solve(op.apply(x)), x, atol=1e-9)


def test_apply_matches_reference_exactly(grid5_geo, quad_weight, rng):
    op = assemble_operator(quad_weight, grid5_geo)
    out, tmp = np.full(op.size, np.nan), np.full(op.size - 1, np.nan)
    for scale in (1e-6, 1.0, 1e6):
        x = scale * rng.standard_normal(op.size)
        ref = op.diag * x
        ref[:-1] += op.off * x[1:]
        ref[1:] += op.off * x[:-1]
        assert np.array_equal(op.apply(x), ref)
        assert np.array_equal(op._apply(x, out, tmp), ref)  # reused buffers


@pytest.mark.parametrize("dim", [4, 5])
def test_unweighted_eigenvalue_benchmark(dim, unit_weight):
    grid = build_grid(dim, 1.0, 2000)
    res = first_eigenpair(unit_weight, grid)
    exact = BESSEL_ZERO[dim] ** 2
    assert res.lambda1 == pytest.approx(exact, rel=5e-3)
    assert res.residual < 1e-7 * res.lambda1


def test_eigenfunction_normalized_positive(grid5, unit_weight):
    res = first_eigenpair(unit_weight, grid5)
    phi = res.eigenfunction
    assert integrate(phi * phi, grid5) == pytest.approx(1.0, rel=1e-12)
    assert np.all(phi[:-1] > 0.0)
    assert phi[-1] == 0.0
    assert phi[0] > phi[1] > phi[2]  # radial maximum at the center


def test_weight_monotonicity_of_eigenvalue(grid5, unit_weight, quad_weight):
    lam_unit = first_eigenpair(unit_weight, grid5).lambda1
    lam_quad = first_eigenpair(quad_weight, grid5).lambda1
    assert lam_quad > lam_unit  # pointwise larger weight, larger eigenvalue
    # constant weight scales linearly
    lam_scaled = first_eigenpair(WeightProfile.constant(2.0), grid5).lambda1
    assert lam_scaled == pytest.approx(2.0 * lam_unit, rel=1e-9)


def test_rayleigh_quotient_bounds_eigenvalue(grid5, quad_weight, rng):
    res = first_eigenpair(quad_weight, grid5)
    for _ in range(10):
        u = smooth_dirichlet_field(grid5, rng)
        quotient = (weighted_gradient_energy(u, quad_weight, grid5)
                    / integrate(u * u, grid5))
        assert quotient >= res.lambda1 * (1.0 - 1e-10)


def test_indefinite_weight_rejected(grid5):
    w = WeightProfile(gamma0=1.0, extra=lambda r: -2.0 * r)   # negative outside
    with pytest.raises(IndefiniteWeight):
        assemble_operator(w, grid5)


def test_solve_matches_banded_solver_bitwise(grid5_geo, quad_weight, rng):
    # the factor is computed once per operator; every solve must still be
    # exactly what a full banded solve of the same band gives
    op = assemble_operator(quad_weight, grid5_geo)
    ab = np.zeros((2, op.size))
    ab[0, 1:] = op.off
    ab[1] = op.diag
    for scale in (1e-6, 1.0, 1e6):
        rhs = scale * rng.standard_normal(op.size)
        assert np.array_equal(op.solve(rhs), solveh_banded(ab, rhs))
    rhs[7] = math.nan
    with pytest.raises(ValueError):
        op.solve(rhs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weight_rejected(bad):
    grid = build_grid(5, 1.0, 200)
    at_nodes = WeightProfile(1.0, 2.0, 1.0,
                             extra=lambda r: np.where(r > 0.5, bad, 0.0))
    with pytest.raises(IndefiniteWeight):
        first_eigenpair(at_nodes, grid)
    at_faces = WeightProfile(1.0, 2.0, 1.0,
                             extra=lambda r: np.where(np.isin(r, grid.faces), bad, 0.0))
    assert np.all(np.isfinite(at_faces(grid.nodes)))
    with pytest.raises(IndefiniteWeight):
        assemble_operator(at_faces, grid)


def test_spectral_stall(unit_weight):
    grid = build_grid(5, 1.0, 100)
    with pytest.raises(SpectralStall) as err:
        first_eigenpair(unit_weight, grid, max_iters=1)
    assert err.value.last_rayleigh is not None


def test_lambda_tilde_is_min(grid5, unit_weight, quad_weight):
    spec = lambda_tilde(unit_weight, quad_weight, grid5)
    assert spec.value == min(spec.first_a.lambda1, spec.first_b.lambda1)
    assert spec.value == spec.first_a.lambda1  # smaller weight, smaller value


def test_pair_energy_certificate(grid5, quad_weight):
    spec = lambda_tilde(quad_weight, quad_weight, grid5)
    thr = coupling_threshold(spec, grid5)
    assert thr >= spec.value
    with pytest.raises(ThresholdNotReached) as err:
        eigenfunction_pair_energy(quad_weight, quad_weight, 0.5 * thr, grid5, spec)
    assert err.value.threshold == pytest.approx(thr, rel=1e-12)
    val = eigenfunction_pair_energy(quad_weight, quad_weight, thr, grid5, spec)
    assert val <= 1e-10
    assert eigenfunction_pair_energy(quad_weight, quad_weight, 1.2 * thr,
                                     grid5, spec) < val
