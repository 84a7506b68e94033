"""Closed-form profile moments, derived constants, and thresholds."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import critvar
from critvar import (bubble_constants, correction_constant, radial_moment,
                     radial_moment_quadrature, slope_factor, thresholds)
from critvar.errors import DivergentIntegral, LogScaledRegime


def test_moment_exact_rational():
    # I(3, 4) = B(2, 2) / 2 = 1/12
    assert radial_moment(3, 4) == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_moment_exact_half_integer():
    # I(4, 5) = B(5/2, 5/2) / 2 = 3 pi / 256
    assert radial_moment(4, 5) == pytest.approx(3.0 * math.pi / 256.0, rel=1e-14)


@pytest.mark.parametrize("s,p", [(3, 4), (4, 5), (5, 5), (6, 5), (7, 6), (3, 3)])
def test_moment_quadrature_cross_check(s, p):
    assert radial_moment_quadrature(s, p) == pytest.approx(
        radial_moment(s, p), rel=1e-10)


def test_import_leaves_scipy_integrate_unloaded():
    # only the quadrature route needs scipy.integrate, and importing it is
    # most of a fresh `import critvar`; a fresh interpreter must not load it
    src = str(Path(critvar.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, critvar; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_moment_divergence_guard():
    with pytest.raises(DivergentIntegral):
        radial_moment(5, 3)          # p <= (s+1)/2
    with pytest.raises(DivergentIntegral):
        radial_moment_quadrature(5, 3)


@pytest.mark.parametrize("dim", [5, 6, 7, 8])
def test_embedding_constant_two_routes(dim):
    sigma = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    k1 = (dim - 2) ** 2 * sigma * radial_moment_quadrature(dim + 1, dim)
    k2 = (sigma * radial_moment_quadrature(dim - 1, dim)) ** ((dim - 2) / dim)
    const = bubble_constants(dim)
    assert k1 / k2 == pytest.approx(const.s, rel=1e-10)


def test_l2_constant_missing_at_dim4():
    const = bubble_constants(4)
    assert not const.valid_k3
    with pytest.raises(LogScaledRegime):
        _ = const.k3


@pytest.mark.parametrize("dim", [5, 6, 7, 8])
def test_correction_over_l2_identity(dim):
    # C2 / K3 = N (N-2)(N+2) / (4 (N-1)) for unit quadratic coefficient
    const = bubble_constants(dim)
    ratio = correction_constant(dim, 1.0, 2.0) / const.k3
    exact = dim * (dim - 2) * (dim + 2) / (4.0 * (dim - 1))
    assert ratio == pytest.approx(exact, rel=1e-12)


def test_correction_identity_value_dim5():
    const = bubble_constants(5)
    assert correction_constant(5, 1.0, 2.0) / const.k3 == pytest.approx(
        105.0 / 16.0, rel=1e-12)


def test_correction_divergence():
    with pytest.raises(DivergentIntegral):
        correction_constant(5, 1.0, 3.0)   # exponent >= N - 2
    with pytest.raises(ValueError):
        correction_constant(5, 1.0, 0.0)


def test_slope_factor_exact():
    assert slope_factor(5) == 105.0 / 32.0
    assert slope_factor(4) == 2.0


def test_thresholds_wiring():
    thr = thresholds(5, 1.0, 1.0)
    assert thr.gamma_n == pytest.approx(105.0 / 16.0, rel=1e-15)
    assert thr.gamma_tilde_a == pytest.approx(105.0 / 32.0, rel=1e-15)
    assert thr.gamma_tilde_b == pytest.approx(105.0 / 32.0, rel=1e-15)


def test_thresholds_dim4_unit_factor():
    thr = thresholds(4, 1.0, 2.0)
    assert thr.gamma_n == pytest.approx(3.0, rel=1e-15)
    assert thr.gamma_tilde_a == pytest.approx(1.0, rel=1e-15)
    assert thr.gamma_tilde_b == pytest.approx(2.0, rel=1e-15)
    assert thr.m_n == 2.0


def test_threshold_validation():
    with pytest.raises(ValueError):
        thresholds(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        thresholds(5, -1.0, 0.0)
