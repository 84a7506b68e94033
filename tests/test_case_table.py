"""The case table, pinned row by row.

Every (N, k, l) with N in {4, 5, 6} and exponents in {1.5, 2, 3, constant}
is listed with what `existence_verdict` and `expansion_prediction` return
for it.  Each row is built by `case_of` from two weight profiles, as the
harness builds it; an exponent of inf in a key stands for the constant
weight `WeightProfile(1.0)`.  The first weight's r^k coefficient is 0.75
and the second's r^l coefficient is 1.25, so that the two quadratic parts
differ.
"""

import math

import pytest

from critvar import (Case, WeightProfile, case_of, existence_verdict,
                     expansion_prediction)
from critvar.errors import BadDomain

INF = math.inf
NAN = math.nan
A_K, B_L = 0.75, 1.25
LAMBDA_TILDE = 30.0

# (N, k, l): (case name, gap threshold, verdict at each coupling of
# _couplings(gap)): e = achieved_by_theorem, g = energy_gap_only,
# o = outside_theory.  A case name of None is outside the table, and its
# gap threshold is nan.
VERDICTS = {
    (4, 1.5, 1.5): (None, NAN, "oooooo"),
    (4, 1.5, 2.0): (None, NAN, "oooooo"),
    (4, 1.5, 3.0): (None, NAN, "oooooo"),
    (4, 1.5, INF): (None, NAN, "oooooo"),
    (4, 2.0, 1.5): (None, NAN, "oooooo"),
    (4, 2.0, 2.0): ("quadratic-both", 2.0, "oogggg"),
    (4, 2.0, 3.0): ("quadratic-first", 0.75, "oogggg"),
    (4, 2.0, INF): ("quadratic-first", 0.75, "oogggg"),
    (4, 3.0, 1.5): (None, NAN, "oooooo"),
    (4, 3.0, 2.0): ("quadratic-second", 1.25, "oogggg"),
    (4, 3.0, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (4, 3.0, INF): ("supercritical-powers", 0.0, "ooeegg"),
    (4, INF, 1.5): (None, NAN, "oooooo"),
    (4, INF, 2.0): ("quadratic-second", 1.25, "oogggg"),
    (4, INF, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (4, INF, INF): ("supercritical-powers", 0.0, "ooeegg"),
    (5, 1.5, 1.5): (None, NAN, "oooooo"),
    (5, 1.5, 2.0): (None, NAN, "oooooo"),
    (5, 1.5, 3.0): (None, NAN, "oooooo"),
    (5, 1.5, INF): (None, NAN, "oooooo"),
    (5, 2.0, 1.5): (None, NAN, "oooooo"),
    (5, 2.0, 2.0): ("quadratic-both", 6.5625, "ooeegg"),
    (5, 2.0, 3.0): ("quadratic-first", 2.4609375, "ooeegg"),
    (5, 2.0, INF): ("quadratic-first", 2.4609375, "ooeegg"),
    (5, 3.0, 1.5): (None, NAN, "oooooo"),
    (5, 3.0, 2.0): ("quadratic-second", 4.1015625, "ooeegg"),
    (5, 3.0, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (5, 3.0, INF): ("supercritical-powers", 0.0, "ooeegg"),
    (5, INF, 1.5): (None, NAN, "oooooo"),
    (5, INF, 2.0): ("quadratic-second", 4.1015625, "ooeegg"),
    (5, INF, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (5, INF, INF): ("supercritical-powers", 0.0, "ooeegg"),
    (6, 1.5, 1.5): (None, NAN, "oooooo"),
    (6, 1.5, 2.0): (None, NAN, "oooooo"),
    (6, 1.5, 3.0): (None, NAN, "oooooo"),
    (6, 1.5, INF): (None, NAN, "oooooo"),
    (6, 2.0, 1.5): (None, NAN, "oooooo"),
    (6, 2.0, 2.0): ("quadratic-both", 9.6, "ooeegg"),
    (6, 2.0, 3.0): ("quadratic-first", 3.5999999999999996, "ooeegg"),
    (6, 2.0, INF): ("quadratic-first", 3.5999999999999996, "ooeegg"),
    (6, 3.0, 1.5): (None, NAN, "oooooo"),
    (6, 3.0, 2.0): ("quadratic-second", 6.0, "ooeegg"),
    (6, 3.0, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (6, 3.0, INF): ("supercritical-powers", 0.0, "ooeegg"),
    (6, INF, 1.5): (None, NAN, "oooooo"),
    (6, INF, 2.0): ("quadratic-second", 6.0, "ooeegg"),
    (6, INF, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (6, INF, INF): ("supercritical-powers", 0.0, "ooeegg"),
}

# (N, k, l): (scale, power, regime, coefficient at lam = 0, at lam = 10),
# or, outside the table, the regime alone: its scale is outside_table, its
# power and coefficient nan, and asymptotics.csv carries the regime.
EXPANSIONS = {
    (4, 1.5, 1.5): "no expansion row for N = 4 with both exponents below 2",
    (4, 1.5, 2.0): ("eps_pow", 0.75, "dim=4,subquadratic-power-1.5",
        61.7010249864139, 61.7010249864139),
    (4, 1.5, 3.0): ("eps_pow", 0.75, "dim=4,subquadratic-power-1.5",
        61.7010249864139, 61.7010249864139),
    (4, 1.5, INF): ("eps_pow", 0.75, "dim=4,subquadratic-power-1.5",
        61.7010249864139, 61.7010249864139),
    (4, 2.0, 1.5): ("eps_pow", 0.75, "dim=4,subquadratic-power-1.5",
        102.83504164402316, 102.83504164402316),
    (4, 2.0, 2.0): ("eps_log_eps", 1.0, "dim=4,k=2,l=2", 30.78119592388474, -123.12478369553897),
    (4, 2.0, 3.0): ("eps_log_eps", 1.0, "dim=4,k=2,l>2", 11.542948471456778, -142.36303114796695),
    (4, 2.0, INF): ("eps_log_eps", 1.0, "dim=4,k=2,l>2", 11.542948471456778, -142.36303114796695),
    (4, 3.0, 1.5): ("eps_pow", 0.75, "dim=4,subquadratic-power-1.5",
        102.83504164402316, 102.83504164402316),
    (4, 3.0, 2.0): ("eps_log_eps", 1.0, "dim=4,k>2,l=2", 19.238247452427967, -134.66773216699576),
    (4, 3.0, 3.0): ("eps_log_eps", 1.0, "dim=4,k>2,l>2", -0.0, -153.90597961942373),
    (4, 3.0, INF): ("eps_log_eps", 1.0, "dim=4,k>2,l>2", -0.0, -153.90597961942373),
    (4, INF, 1.5): ("eps_pow", 0.75, "dim=4,subquadratic-power-1.5",
        102.83504164402316, 102.83504164402316),
    (4, INF, 2.0): ("eps_log_eps", 1.0, "dim=4,k>2,l=2", 19.238247452427967, -134.66773216699576),
    (4, INF, 3.0): ("eps_log_eps", 1.0, "dim=4,k>2,l>2", -0.0, -153.90597961942373),
    (4, INF, INF): ("eps_log_eps", 1.0, "dim=4,k>2,l>2", -0.0, -153.90597961942373),
    (5, 1.5, 1.5): "no expansion row for N = 5 with exponent below 2",
    (5, 1.5, 2.0): "no expansion row for N = 5 with exponent below 2",
    (5, 1.5, 3.0): "no expansion row for N = 5 with exponent below 2",
    (5, 1.5, INF): "no expansion row for N = 5 with exponent below 2",
    (5, 2.0, 1.5): "no expansion row for N = 5 with exponent below 2",
    (5, 2.0, 2.0): ("eps", 1.0, "dim>=5,k=2,l=2", 103.68338204004154, -54.31034297335509),
    (5, 2.0, 3.0): ("eps", 1.0, "dim>=5,k=2,l>2", 38.88126826501558, -119.11245674838106),
    (5, 2.0, INF): ("eps", 1.0, "dim>=5,k=2,l>2", 38.88126826501558, -119.11245674838106),
    (5, 3.0, 1.5): "no expansion row for N = 5 with exponent below 2",
    (5, 3.0, 2.0): ("eps", 1.0, "dim>=5,k>2,l=2", 64.80211377502596, -93.19161123837067),
    (5, 3.0, 3.0): ("eps", 1.0, "dim>=5,k>2,l>2", -0.0, -157.9937250133966),
    (5, 3.0, INF): ("eps", 1.0, "dim>=5,k>2,l>2", -0.0, -157.9937250133966),
    (5, INF, 1.5): "no expansion row for N = 5 with exponent below 2",
    (5, INF, 2.0): ("eps", 1.0, "dim>=5,k>2,l=2", 64.80211377502596, -93.19161123837067),
    (5, INF, 3.0): ("eps", 1.0, "dim>=5,k>2,l>2", -0.0, -157.9937250133966),
    (5, INF, INF): ("eps", 1.0, "dim>=5,k>2,l>2", -0.0, -157.9937250133966),
    (6, 1.5, 1.5): "no expansion row for N = 6 with exponent below 2",
    (6, 1.5, 2.0): "no expansion row for N = 6 with exponent below 2",
    (6, 1.5, 3.0): "no expansion row for N = 6 with exponent below 2",
    (6, 1.5, INF): "no expansion row for N = 6 with exponent below 2",
    (6, 2.0, 1.5): "no expansion row for N = 6 with exponent below 2",
    (6, 2.0, 2.0): ("eps", 1.0, "dim>=5,k=2,l=2", 77.03782666189284, -3.2099094442455374),
    (6, 2.0, 3.0): ("eps", 1.0, "dim>=5,k=2,l>2", 28.88918499820981, -51.358551107928555),
    (6, 2.0, INF): ("eps", 1.0, "dim>=5,k=2,l>2", 28.88918499820981, -51.358551107928555),
    (6, 3.0, 1.5): "no expansion row for N = 6 with exponent below 2",
    (6, 3.0, 2.0): ("eps", 1.0, "dim>=5,k>2,l=2", 48.14864166368302, -32.099094442455346),
    (6, 3.0, 3.0): ("eps", 1.0, "dim>=5,k>2,l>2", -0.0, -80.24773610613838),
    (6, 3.0, INF): ("eps", 1.0, "dim>=5,k>2,l>2", -0.0, -80.24773610613838),
    (6, INF, 1.5): "no expansion row for N = 6 with exponent below 2",
    (6, INF, 2.0): ("eps", 1.0, "dim>=5,k>2,l=2", 48.14864166368302, -32.099094442455346),
    (6, INF, 3.0): ("eps", 1.0, "dim>=5,k>2,l>2", -0.0, -80.24773610613838),
    (6, INF, INF): ("eps", 1.0, "dim>=5,k>2,l>2", -0.0, -80.24773610613838),
}

_VERDICT_CODES = {"e": "achieved_by_theorem", "g": "energy_gap_only",
                  "o": "outside_theory"}


def _case(dim, k, l):
    """The row of the key (N, k, l), an exponent inf a constant weight."""
    a = WeightProfile(1.0) if k == INF else WeightProfile(1.0, k, A_K)
    b = WeightProfile(1.0) if l == INF else WeightProfile(1.0, l, B_L)
    return case_of(dim, a, b)


def _couplings(gap):
    """Just below, at and just above the gap threshold and lambda-tilde."""
    base = 0.0 if math.isnan(gap) else gap
    return (base - 0.25, base, base + 0.25,
            LAMBDA_TILDE - 0.25, LAMBDA_TILDE, LAMBDA_TILDE + 0.25)


@pytest.mark.parametrize("dim,k,l", list(VERDICTS))
def test_existence_verdict_row(dim, k, l):
    name, gap, codes = VERDICTS[dim, k, l]
    case = _case(dim, k, l)
    assert case.name == name
    assert case.gap == gap or (math.isnan(case.gap) and math.isnan(gap))
    for lam, code in zip(_couplings(gap), codes):
        v = existence_verdict(case, lam, LAMBDA_TILDE)
        verdict = _VERDICT_CODES[code]
        case_id = {"e": f"existence.{name}", "g": f"gap.{name}",
                   "o": "outside"}[code]
        assert (v.case_id, v.verdict) == (case_id, verdict), lam


@pytest.mark.parametrize("dim,k,l", list(EXPANSIONS))
def test_expansion_prediction_row(dim, k, l):
    expected = EXPANSIONS[dim, k, l]
    case = _case(dim, k, l)
    if isinstance(expected, str):
        pred = expansion_prediction(case, 0.0)
        assert (pred.scale, pred.regime) == ("outside_table", expected)
        assert math.isnan(pred.power) and math.isnan(pred.coeff)
        return
    scale, power, regime, coeff_0, coeff_10 = expected
    for lam, coeff in ((0.0, coeff_0), (10.0, coeff_10)):
        pred = expansion_prediction(case, lam)
        assert (pred.scale, pred.power, pred.regime) == (scale, power, regime)
        assert pred.coeff == pytest.approx(coeff, rel=1e-13, abs=1e-12)


def test_constant_weights_share_one_row():
    # a constant weight's exponent is unused, so it does not enter the row
    case = case_of(5, WeightProfile(1.0, 3.0), WeightProfile(1.0, 1.5))
    assert case == case_of(5, WeightProfile(1.0), WeightProfile(1.0, 7.0))
    assert case == Case(5, INF, INF, 0.0, 0.0)
    assert hash(case) == hash(Case(5, INF, INF, 0.0, 0.0))


@pytest.mark.parametrize("dim", [2, 3])
def test_below_n4_both_tables_raise_bad_domain(dim):
    # the row both tables read is defined for N >= 4
    with pytest.raises(BadDomain):
        case_of(dim, WeightProfile(1.0, 3.0, 0.75), WeightProfile(1.0, 3.0, 1.25))
    with pytest.raises(BadDomain):
        case_of(dim, WeightProfile(1.0, 2.0, 1.0), WeightProfile(1.0, 2.0, 1.0))
