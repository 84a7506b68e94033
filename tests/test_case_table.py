"""The case table, pinned row by row.

Every (N, k, l) with N in {4, 5, 6} and exponents in {1.5, 2, 3, constant}
is listed with what `existence_verdict` and `expansion_prediction` return
for it.  A constant weight enters as exponent inf with coefficient 0, as
the harness passes it; the first weight's r^k coefficient is 0.75 and the
second's r^l coefficient is 1.25, so that the two quadratic parts differ.
"""

import math

import pytest

from critvar import existence_verdict, expansion_prediction
from critvar.errors import OutsideTable

INF = math.inf
A_K, B_L = 0.75, 1.25
LAMBDA_TILDE = 30.0

# (N, k, l): (case name, gap threshold, verdict at each coupling of
# _couplings(gap)): e = achieved_by_theorem, g = energy_gap_only,
# o = outside_theory.  A case name of None is outside the table.
VERDICTS = {
    (4, 1.5, 1.5): (None, None, "oooooo"),
    (4, 1.5, 2.0): (None, None, "oooooo"),
    (4, 1.5, 3.0): (None, None, "oooooo"),
    (4, 1.5, INF): (None, None, "oooooo"),
    (4, 2.0, 1.5): (None, None, "oooooo"),
    (4, 2.0, 2.0): ("quadratic-both", 2.0, "oogggg"),
    (4, 2.0, 3.0): ("quadratic-first", 0.75, "oogggg"),
    (4, 2.0, INF): ("quadratic-first", 0.75, "oogggg"),
    (4, 3.0, 1.5): (None, None, "oooooo"),
    (4, 3.0, 2.0): ("quadratic-second", 1.25, "oogggg"),
    (4, 3.0, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (4, 3.0, INF): ("supercritical-powers", 0.0, "ooeegg"),
    (4, INF, 1.5): (None, None, "oooooo"),
    (4, INF, 2.0): ("quadratic-second", 1.25, "oogggg"),
    (4, INF, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (4, INF, INF): ("supercritical-powers", 0.0, "ooeegg"),
    (5, 1.5, 1.5): (None, None, "oooooo"),
    (5, 1.5, 2.0): (None, None, "oooooo"),
    (5, 1.5, 3.0): (None, None, "oooooo"),
    (5, 1.5, INF): (None, None, "oooooo"),
    (5, 2.0, 1.5): (None, None, "oooooo"),
    (5, 2.0, 2.0): ("quadratic-both", 6.5625, "ooeegg"),
    (5, 2.0, 3.0): ("quadratic-first", 2.4609375, "ooeegg"),
    (5, 2.0, INF): ("quadratic-first", 2.4609375, "ooeegg"),
    (5, 3.0, 1.5): (None, None, "oooooo"),
    (5, 3.0, 2.0): ("quadratic-second", 4.1015625, "ooeegg"),
    (5, 3.0, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (5, 3.0, INF): ("supercritical-powers", 0.0, "ooeegg"),
    (5, INF, 1.5): (None, None, "oooooo"),
    (5, INF, 2.0): ("quadratic-second", 4.1015625, "ooeegg"),
    (5, INF, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (5, INF, INF): ("supercritical-powers", 0.0, "ooeegg"),
    (6, 1.5, 1.5): (None, None, "oooooo"),
    (6, 1.5, 2.0): (None, None, "oooooo"),
    (6, 1.5, 3.0): (None, None, "oooooo"),
    (6, 1.5, INF): (None, None, "oooooo"),
    (6, 2.0, 1.5): (None, None, "oooooo"),
    (6, 2.0, 2.0): ("quadratic-both", 9.6, "ooeegg"),
    (6, 2.0, 3.0): ("quadratic-first", 3.5999999999999996, "ooeegg"),
    (6, 2.0, INF): ("quadratic-first", 3.5999999999999996, "ooeegg"),
    (6, 3.0, 1.5): (None, None, "oooooo"),
    (6, 3.0, 2.0): ("quadratic-second", 6.0, "ooeegg"),
    (6, 3.0, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (6, 3.0, INF): ("supercritical-powers", 0.0, "ooeegg"),
    (6, INF, 1.5): (None, None, "oooooo"),
    (6, INF, 2.0): ("quadratic-second", 6.0, "ooeegg"),
    (6, INF, 3.0): ("supercritical-powers", 0.0, "ooeegg"),
    (6, INF, INF): ("supercritical-powers", 0.0, "ooeegg"),
}

# (N, k, l): (scale, power, regime, coefficient at lam = 0, at lam = 10),
# or the OutsideTable message, which asymptotics.csv carries as its regime.
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


def _coefficients(k, l):
    return 0.0 if k == INF else A_K, 0.0 if l == INF else B_L


def _couplings(gap):
    """Just below, at and just above the gap threshold and lambda-tilde."""
    base = 0.0 if gap is None else gap
    return (base - 0.25, base, base + 0.25,
            LAMBDA_TILDE - 0.25, LAMBDA_TILDE, LAMBDA_TILDE + 0.25)


@pytest.mark.parametrize("dim,k,l", list(VERDICTS))
def test_existence_verdict_row(dim, k, l):
    name, gap, codes = VERDICTS[dim, k, l]
    a_k, b_l = _coefficients(k, l)
    for lam, code in zip(_couplings(gap), codes):
        v = existence_verdict(dim, k, l, a_k, b_l, lam, LAMBDA_TILDE)
        verdict = _VERDICT_CODES[code]
        case_id = {"e": f"existence.{name}", "g": f"gap.{name}",
                   "o": "outside"}[code]
        assert (v.case_id, v.verdict) == (case_id, verdict), lam
        assert v.thresholds_used["gap_threshold"] == gap


@pytest.mark.parametrize("dim,k,l", list(EXPANSIONS))
def test_expansion_prediction_row(dim, k, l):
    expected = EXPANSIONS[dim, k, l]
    a_k, b_l = _coefficients(k, l)
    if isinstance(expected, str):
        with pytest.raises(OutsideTable, match=f"^{expected}$"):
            expansion_prediction(dim, k, l, a_k, b_l, 0.0)
        return
    scale, power, regime, coeff_0, coeff_10 = expected
    for lam, coeff in ((0.0, coeff_0), (10.0, coeff_10)):
        pred = expansion_prediction(dim, k, l, a_k, b_l, lam)
        assert (pred.scale, pred.power, pred.regime) == (scale, power, regime)
        assert pred.coeff == pytest.approx(coeff, rel=1e-13, abs=1e-12)
