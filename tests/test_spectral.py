"""Flux-form operator assembly and the first weighted eigenpair."""

import math

import numpy as np
import pytest

from critvar import (FieldPair, FlowParams, WeightProfile, assemble_operator,
                     build_grid, dirichlet_field, first_eigenpair, integrate,
                     parse_scenario, run, sweep_minimize, tilde_weight)
from critvar.spectral import TridiagonalOperator
from critvar.errors import IndefiniteWeight, SpectralStall
from conftest import (coupling_threshold, eigenfunction_pair_energy, energy,
                      smooth_dirichlet_field, weighted_gradient_energy)

# first zero of the Bessel functions J_{N/2-1}; lambda_1 of the Dirichlet
# Laplacian on the unit ball is its square
BESSEL_ZERO = {4: 3.8317059702075123, 5: 4.493409457909064}


def dense_operator(c):
    """K from its conductances: c_0, then c_(i-1) + c_i on the diagonal
    (no flux through the origin face), -c_i beside it."""
    return (np.diag(c + np.append(0.0, c[:-1]))
            - np.diag(c[:-1], 1) - np.diag(c[:-1], -1))


def test_operator_form_matches_gradient_energy(grid5, quad_weight, rng):
    u = smooth_dirichlet_field(grid5, rng)
    op = assemble_operator(quad_weight, grid5)
    form = np.dot(u[1:-1], op.apply(u[1:-1]))
    direct = weighted_gradient_energy(u, quad_weight, grid5)
    assert form == pytest.approx(direct, rel=1e-12)


def test_apply_solve_roundtrip(grid5, unit_weight, rng):
    op = assemble_operator(unit_weight, grid5)
    x = rng.standard_normal(op.size)
    assert np.allclose(op.solve(op.apply(x)), x, atol=1e-9)


def test_apply_matches_reference_exactly(grid5_geo, quad_weight, rng):
    # exactly the difference of the face fluxes c (x_{i+1} - x_i), x_n = 0,
    # and the dense K to a few ulp (the two round differently)
    op = assemble_operator(quad_weight, grid5_geo)
    k = dense_operator(op.c)
    for scale in (1e-6, 1.0, 1e6):
        x = scale * rng.standard_normal(op.size)
        f = np.zeros(op.size + 1)
        f[1:] = op.c * np.diff(np.append(x, 0.0))
        kx = op.apply(x)
        assert np.array_equal(kx, f[:-1] - f[1:])
        ref = k @ x
        assert np.max(np.abs(kx - ref)) <= 4.0 * np.spacing(np.max(np.abs(ref)))


@pytest.mark.parametrize("grid_name", ["grid5", "grid5_geo"])
def test_flux_difference_is_the_operator(request, grid_name, quad_weight, rng):
    # K x from the face fluxes f = c (x_{i+1} - x_i), f = 0 through the origin
    grid = request.getfixturevalue(grid_name)
    op = assemble_operator(quad_weight, grid)
    for scale in (1e-6, 1.0, 1e6):
        x = scale * rng.standard_normal(op.size)
        f = np.zeros(op.size + 1)
        f[1:] = op.c * np.diff(np.append(x, 0.0))
        kx = op.apply(x)
        out = np.full(op.size, np.nan)
        assert op._flux_difference(f, out) is out
        assert np.max(np.abs(out - kx)) <= 4.0 * np.spacing(np.max(np.abs(kx)))


@pytest.mark.parametrize("grid", [build_grid(5, 1.0, 200),
                                  build_grid(5, 1.0, 300, "geometric", 1.01)])
@pytest.mark.parametrize("weight", [WeightProfile(1.0), WeightProfile(1.0, 4.0, 1.0)])
def test_first_eigenpair_matches_dense_eigh(grid, weight):
    # the smallest eigenpair of M^(-1/2) K M^(-1/2), whose eigenvector z
    # gives x = M^(-1/2) z, M-normalized as the eigenfunction's interior is
    op = assemble_operator(weight, grid)
    k = dense_operator(op.c)
    s = 1.0 / np.sqrt(grid.masses[1:-1])
    values, vectors = np.linalg.eigh(s[:, None] * k * s[None, :])
    x = s * vectors[:, 0]
    x *= np.sign(np.sum(x))
    res = first_eigenpair(weight, grid)
    assert res.lambda1 == pytest.approx(values[0], rel=1e-10)
    assert np.max(np.abs(res.eigenfunction[1:-1] - x)) <= 1e-10 * np.max(np.abs(x))


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
    lam_scaled = first_eigenpair(WeightProfile(2.0), grid5).lambda1
    assert lam_scaled == pytest.approx(2.0 * lam_unit, rel=1e-9)


def test_rayleigh_quotient_bounds_eigenvalue(grid5, quad_weight, rng):
    res = first_eigenpair(quad_weight, grid5)
    for _ in range(10):
        u = smooth_dirichlet_field(grid5, rng)
        quotient = (weighted_gradient_energy(u, quad_weight, grid5)
                    / integrate(u * u, grid5))
        assert quotient >= res.lambda1 * (1.0 - 1e-10)


def test_indefinite_weight_rejected(grid5):
    w = WeightProfile(1.0, 2.0, 0.0, ((0.0, 1.0), (0.0, -4.0)))   # 1 - 4 r^3 < 0 outside
    with pytest.raises(IndefiniteWeight):
        assemble_operator(w, grid5)


def test_solve_matches_long_double_running_sums(grid5_geo, quad_weight, rng):
    # x_j = sum_{k>=j} (sum_{i<=k} rhs_i) / c_k, in long double on the same c;
    # on these mass-weighted right-hand sides an LDL^T solve (LAPACK dpttrs)
    # is off by 1e-12 relative, the running sums by a few 1e-15
    op = assemble_operator(quad_weight, grid5_geo)
    m = grid5_geo.masses[1:-1]
    for scale in (1e-6, 1.0, 1e6):
        rhs = scale * m * rng.standard_normal(op.size)
        ref = np.cumsum(rhs.astype(np.longdouble)) / op.c.astype(np.longdouble)
        ref = np.cumsum(ref[::-1])[::-1]
        err = np.max(np.abs(op.solve(rhs) - ref)) / np.max(np.abs(ref))
        assert err <= 1e-13
    rhs[7] = math.nan
    with pytest.raises(ValueError):
        op.solve(rhs)


def test_operator_is_built_once_and_read_only(grid5, quad_weight):
    op = assemble_operator(quad_weight, grid5)
    assert assemble_operator(quad_weight, grid5) is op
    arrays = list(vars(op).values())
    assert len(arrays) == 2 and any(arr is op.c for arr in arrays)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    bad = WeightProfile(1.0, 2.0, 0.0, ((0.0, 1.0), (0.0, -4.0)))
    for _ in range(2):                  # a failure is not cached
        with pytest.raises(IndefiniteWeight):
            assemble_operator(bad, grid5)


@pytest.mark.parametrize("bad", [0.0, math.inf, -1.0, math.nan, 1e-310])
def test_operator_rejects_a_conductance_that_is_not_finite_and_positive(bad):
    # 1e-310 is subnormal: its reciprocal, which the solve multiplies by,
    # overflows
    c = np.array([1.0, 2.0, bad, 3.0])
    with pytest.raises(IndefiniteWeight):
        TridiagonalOperator(c)
    op = TridiagonalOperator(np.array([1.0, 2.0, 4.0, 3.0]))
    k = np.column_stack([op.apply(e) for e in np.eye(op.size)])
    assert np.array_equal(k, dense_operator(op.c))
    assert np.array_equal(np.diag(k), [1.0, 3.0, 6.0, 7.0])
    assert np.array_equal(np.diag(k, 1), [-1.0, -2.0, -4.0])
    assert np.array_equal(np.diag(k, -1), [-1.0, -2.0, -4.0])


def test_conductances_are_read_only_and_give_the_coupling(grid5, quad_weight, rng):
    # the flow's energy sum c_f (u_{f+1} - u_f)^2 is the public gradient
    # energy up to rounding
    op = assemble_operator(quad_weight, grid5)
    with pytest.raises(ValueError):
        op.c[0] = 1.0
    k = np.column_stack([op.apply(e) for e in np.eye(op.size)])   # K, read off apply
    assert np.array_equal(-op.c[:-1], np.diag(k, 1))
    assert np.array_equal(-op.c[:-1], np.diag(k, -1))
    u = smooth_dirichlet_field(grid5, rng)
    assert float(np.dot(op.c, np.diff(u[1:]) ** 2)) == pytest.approx(
        weighted_gradient_energy(u, quad_weight, grid5), rel=1e-13, abs=0.0)


def test_each_weight_is_sampled_and_factored_once(monkeypatch, rng):
    # the eigen-solve, a sweep's flows and pool (whose kernels report the
    # residual) and the energy all share one operator per (weight, grid)
    grid = build_grid(5, 1.0, 200)
    a = WeightProfile(1.0, 2.0, 1.0)
    b = WeightProfile(1.0, 4.0, 1.0)
    at_faces, built = [], []
    call, post_init = WeightProfile.__call__, TridiagonalOperator.__post_init__

    def sampled(self, r):
        if np.shape(r) == grid.faces[1:].shape and np.array_equal(r, grid.faces[1:]):
            at_faces.append(self)
        return call(self, r)

    def counted(self):
        built.append(1)
        return post_init(self)

    monkeypatch.setattr(WeightProfile, "__call__", sampled)
    monkeypatch.setattr(TridiagonalOperator, "__post_init__", counted)
    first_eigenpair(a, grid), first_eigenpair(b, grid)
    sweep_minimize([8.0, 10.0, 12.0], a, b, grid,
                   FlowParams(max_iters=200, grad_tol=1e-6))
    u = smooth_dirichlet_field(grid, rng)
    pair = FieldPair(u=u, v=u.copy())
    energy(pair, a, b, 9.0, grid)
    assert len(at_faces) == 2 and at_faces[0] is a and at_faces[1] is b
    assert len(built) == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weight_rejected(bad):
    # on R = 2, 1e308 r^2 overflows to inf; theta = -1e308 r makes it inf - inf
    grid = build_grid(5, 2.0, 200)
    theta = ((0.0, 1.0), (0.0, -1e308 if math.isnan(bad) else 0.0))
    outer = WeightProfile(1.0, 2.0, 1e308, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(outer(grid.nodes[-1:]), [bad], equal_nan=True)
        with pytest.raises(IndefiniteWeight):
            first_eigenpair(outer, grid)


def test_equal_weights_share_one_operator_tilt_and_eigen_solve():
    # a weight is a value: two built apart, one from lists, find one memo entry
    grid = build_grid(5, 1.0, 200)
    table = ((0.0, 0.5, 1.0), (0.0, 0.1, 0.0))
    a = WeightProfile(1.0, 2.0, 1.0, table)
    b = WeightProfile(1.0, 2.0, 1.0, [list(t) for t in table])
    assert a is not b
    assert assemble_operator(a, grid) is assemble_operator(b, grid)
    assert tilde_weight(a, grid) is tilde_weight(b, grid)
    assert first_eigenpair(a, grid) is first_eigenpair(b, grid)


@pytest.mark.parametrize("gamma0", [1e-300, 1e300])
def test_eigenvalue_scales_with_gamma0_at_extreme_scales(gamma0):
    # the iterate and the residual are near 1e+-300 there; squaring them
    # must not over- or underflow
    grid = build_grid(5, 1.0, 200)
    unit = first_eigenpair(WeightProfile(1.0), grid)
    res = first_eigenpair(WeightProfile(gamma0), grid)
    assert res.lambda1 == pytest.approx(gamma0 * unit.lambda1, rel=1e-9)
    assert np.allclose(res.eigenfunction, unit.eigenfunction, rtol=1e-8, atol=1e-8)


def test_subnormal_conductance_is_an_indefinite_weight():
    # gamma0 = 1e-305 puts the innermost conductances below the smallest
    # normal number, where 1 / c overflows
    with pytest.raises(IndefiniteWeight):
        first_eigenpair(WeightProfile(1e-305), build_grid(5, 1.0, 200))


@pytest.mark.parametrize("same", [True, False])
def test_lambda_tilde_runs_one_iteration_per_distinct_conductance(monkeypatch, same):
    # equal weights that are distinct objects assemble to identical c and
    # share one inverse iteration; distinct weights run one each
    grid = build_grid(5, 1.0, 300)
    a = WeightProfile(1.0, 2.0, 1.0)
    b = WeightProfile(1.0, 2.0, 1.0 if same else 2.0)
    solves = []
    solve = TridiagonalOperator.solve

    def counted(self, rhs):
        solves.append(self)
        return solve(self, rhs)

    monkeypatch.setattr(TridiagonalOperator, "solve", counted)
    ra, rb = first_eigenpair(a, grid), first_eigenpair(b, grid)
    expected = ra.iterations if same else ra.iterations + rb.iterations
    assert (ra is rb) == same
    assert len(solves) == expected
    assert not ra.eigenfunction.flags.writeable
    assert first_eigenpair(b, grid) is rb     # kept on the grid
    assert len(solves) == expected


def test_spectral_stall(monkeypatch, unit_weight):
    monkeypatch.setattr("critvar.spectral._EIG_MAX_ITERS", 1)
    grid = build_grid(5, 1.0, 100)
    with pytest.raises(SpectralStall) as err:
        first_eigenpair(unit_weight, grid)
    assert err.value.last_rayleigh is not None


def test_lambda_tilde_is_min(grid5, unit_weight):
    # run's lambda-tilde, on grid5's 800 uniform cells: a = 1, b = 1 + r^2
    eig = run(parse_scenario("""
[domain]
dimension = 5
cells = 800
[weights.a]
gamma0 = 1.0
[weights.b]
gamma0 = 1.0
coefficient = 1.0
[output]
analyses = eig
""")).tables["eig"][0]
    assert eig["lambda_tilde"] == min(eig["lambda1_a"], eig["lambda1_b"])
    assert eig["lambda_tilde"] == eig["lambda1_a"]  # smaller weight, smaller value
    assert eig["lambda1_a"] == first_eigenpair(unit_weight, grid5).lambda1


def test_pair_energy_certificate(grid5, quad_weight):
    eig = first_eigenpair(quad_weight, grid5)
    thr = coupling_threshold(eig, eig, grid5)
    assert thr >= eig.lambda1
    val = eigenfunction_pair_energy(quad_weight, quad_weight, thr, grid5, eig, eig)
    assert val <= 1e-10
    assert eigenfunction_pair_energy(quad_weight, quad_weight, 1.2 * thr,
                                     grid5, eig, eig) < val
