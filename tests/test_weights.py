"""Weight profiles: evaluation and derivatives."""

import warnings

import numpy as np
import pytest

from critvar import WeightProfile


def test_pure_power_evaluation():
    w = WeightProfile(2.0, 3.0, 0.5)
    r = np.array([0.0, 0.5, 1.0])
    assert np.allclose(w(r), 2.0 + 0.5 * r ** 3, rtol=1e-15)
    assert w(0.0) == 2.0
    assert isinstance(w(0.5), float)


def test_constant_weight():
    w = WeightProfile(3.0)
    r = np.linspace(0.0, 2.0, 11)
    assert np.allclose(w(r), 3.0)
    assert np.allclose(w.derivative(r), 0.0)
    assert np.allclose(w.radial_tilt(r), 0.0)


def test_power_derivative_exact():
    w = WeightProfile(1.0, 2.0, 4.0)
    r = np.linspace(0.0, 1.0, 21)
    assert np.allclose(w.derivative(r), 8.0 * r, rtol=1e-14)
    assert np.allclose(w.radial_tilt(r), 8.0 * r ** 2, rtol=1e-14)


def test_power_below_one_at_the_center_warns_nothing():
    # r^(e - 1) is infinite at r = 0 for e < 1, where w' is taken as 0
    w = WeightProfile(1.0, 0.5, 1.0)
    r = np.array([0.0, 0.25, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tilt = w.radial_tilt(r)
        assert w.derivative(0.0) == 0.0 and w.radial_tilt(0.0) == 0.0
    assert np.allclose(tilt, 0.5 * r ** 0.5, rtol=1e-15)


def test_perturbation_table_interpolated():
    w = WeightProfile(gamma0=1.0, exponent=2.0, coefficient=1.0,
                      perturbation=((0.0, 1.0), (0.0, 0.1)))
    # theta(r) = 0.1 r, so w = 1 + r^2 + 0.1 r^3
    r = np.array([0.0, 0.5, 1.0])
    assert np.allclose(w(r), 1.0 + r ** 2 + 0.1 * r ** 3, rtol=1e-12)


def test_perturbation_table_derivative_fd():
    # theta(r) = 0.1 r, so w' = 2 r + 0.3 r^2
    w = WeightProfile(1.0, 2.0, 1.0, ((0.0, 1.0), (0.0, 0.1)))
    r = np.linspace(0.1, 0.9, 9)
    exact = 2.0 * r + 0.3 * r ** 2
    assert np.allclose(w.derivative(r), exact, rtol=1e-8)


def test_weights_compare_by_value():
    # lists, arrays and tuples of the same table make one hashable value
    table = ((0.0, 0.5, 1.0), (0.0, 0.1, 0.0))
    w = WeightProfile(1.0, 2.0, 1.0, table)
    assert w.perturbation == table
    for same in ([list(t) for t in table], np.array(table)):
        v = WeightProfile(1.0, 2.0, 1.0, same)
        assert v == w and hash(v) == hash(w)
    assert WeightProfile(1.0, 2.0, 1.0, ((0.0, 1.0), (0.0, 0.1))) != w


def test_validation():
    with pytest.raises(ValueError):
        WeightProfile(gamma0=0.0)
    with pytest.raises(ValueError):
        WeightProfile(gamma0=1.0, exponent=-1.0)
    with pytest.raises(ValueError):
        WeightProfile(gamma0=1.0, coefficient=-1.0)


@pytest.mark.parametrize("field", ["gamma0", "exponent", "coefficient"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_parameter_rejected(field, value):
    # nan <= 0 is False, so NaN and inf once passed: gamma0 = nan was
    # reported as two unequal centers, exponent = inf as a coarse grid
    with pytest.raises(ValueError, match=f"^{field} must be"):
        WeightProfile(**{"gamma0": 1.0, "coefficient": 1.0, field: value})


@pytest.mark.parametrize("table", [
    ((1.0, 0.5, 0.0), (0.0, 0.5, 0.0)),     # np.interp once read it as theta = 0
    ((0.0, 0.5, 0.5), (0.0, 0.1, 0.2)),
    ((0.0, 1.0), (0.5, 0.5)),               # theta(0) = 0.5: really 1 + 1.5 r^2
    ((0.5, 1.0), (0.1, 0.0)),               # read as theta = 0.1 at r = 0
    ((0.0, np.nan), (0.0, 0.1)),
    ((0.0, 1.0), (0.0, np.inf)),
    ((0.0, 1.0), (0.0,)),
    ((), ()),
], ids=["decreasing", "repeated", "theta0-nonzero", "theta0-clamped", "nan",
        "inf", "lengths", "empty"])
def test_bad_perturbation_table_rejected(table):
    with pytest.raises(ValueError):
        WeightProfile(1.0, 2.0, 1.0, table)

