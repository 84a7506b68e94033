"""Closed-form profile moments, derived constants, and the case thresholds."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import critvar
from critvar import (Case, bubble_constants, correction_constant,
                     radial_moment, slope_factor)
from critvar.errors import BadDomain, DivergentIntegral
from conftest import radial_moment_quadrature


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


def _scenario(dim, b_exponent, lambdas, analyses):
    return (f"[domain]\ndimension = {dim}\ncells = 400\n"
            "grading = geometric\nratio = 1.01\n"
            "[weights.a]\ngamma0 = 1.0\ncoefficient = 1.0\n"
            f"[weights.b]\ngamma0 = 1.0\nexponent = {b_exponent}\n"
            "coefficient = 1.0\n"
            f"[sweep]\nlambdas = {lambdas}\n[output]\nanalyses = {analyses}\n")


def test_import_leaves_scipy_integrate_unloaded():
    # importing scipy is most of a fresh `import critvar`: nothing in the
    # package uses scipy.integrate, the Beta closed form takes its
    # log-Gammas from math (scipy.special would pull in numpy.f2py), and the
    # stiffness solve is two running sums, so only a Newton step of the
    # polish loads scipy.linalg; each case runs in a fresh interpreter
    src = str(Path(critvar.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    report = ("import sys; from critvar import parse_scenario, run; "
              "rep = run(parse_scenario(sys.stdin.read())); "
              "print(not rep.failures, 'scipy.linalg' in sys.modules)")
    cases = {
        "import": ("import sys, critvar; "
                   "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))",
                   "", "False"),
        "minimize at lambda 0": (report, _scenario(5, 2.0, "0", "minimize"),
                                 "True False"),
        "N = 4 diagnostics": (report, _scenario(4, 4.0, "2 6",
                                                "eig asymptotics omega"),
                              "True False"),
        "converging sweep": (report, _scenario(5, 2.0, "8 12", "minimize"),
                             "True True"),
    }
    procs = {name: subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, (code, _, _) in cases.items()}
    for name, (_, ini, expected) in cases.items():
        out, err = procs[name].communicate(ini)
        assert procs[name].returncode == 0, err
        assert out.strip() == expected, name


def test_moment_divergence_guard():
    with pytest.raises(DivergentIntegral):
        radial_moment(5, 3)          # p <= (s+1)/2


def test_bubble_constants_are_computed_once_per_dimension():
    # they depend on N alone; the asymptotics analysis asks once per coupling
    assert bubble_constants(4) is bubble_constants(4)
    assert bubble_constants(5) is not bubble_constants(4)


def test_l2_constant_missing_at_dim4():
    # the L2 mass is eps*|ln eps|-scaled at N = 4: K3 does not exist there
    const = bubble_constants(4)
    assert math.isnan(const.k3)
    assert all(map(math.isfinite, (const.k1, const.k2, const.s, const.sigma)))


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
    case = Case(5, 2.0, 2.0, 1.0, 1.0)
    assert case.threshold_both == pytest.approx(105.0 / 16.0, rel=1e-15)
    assert case.threshold_first == pytest.approx(105.0 / 32.0, rel=1e-15)
    assert case.threshold_second == pytest.approx(105.0 / 32.0, rel=1e-15)


def test_thresholds_dim4_unit_factor():
    case = Case(4, 2.0, 2.0, 1.0, 2.0)
    assert case.threshold_both == pytest.approx(3.0, rel=1e-15)
    assert case.threshold_first == pytest.approx(1.0, rel=1e-15)
    assert case.threshold_second == pytest.approx(2.0, rel=1e-15)
    assert slope_factor(case.dim) == 2.0


def test_threshold_validation():
    with pytest.raises(BadDomain):
        Case(3, 2.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Case(5, 2.0, 2.0, -1.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Case(5, 2.0, 2.0, 1.0, bad)
