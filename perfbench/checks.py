"""Correctness checks on the CSV rows one scenario run writes.

Every row is checked twice:

- against the invariants the acceptance suite pins for its workload
  (listed per workload below), and
- value by value against the reference snapshot of its input variant,
  taken at the commit that introduced the benchmark (`make_reference.py`).

The snapshot tolerance sits on values, not on iteration counts or
residuals: later changes to the flow (one gradient-energy discretization,
a lockstep sweep, a Newton polish) legitimately move iteration counts,
residuals and the last digits.  Residuals are checked by the invariants
instead.  A row fails if any check on it fails; a missing row fails too.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

TABLES = ("constants", "eig", "minimize", "asymptotics", "pohozaev", "omega",
          "provenance")

# Relative tolerance per (table, column), applied as
# |value - ref| <= rtol * max(|ref|, largest |ref| in the column).
# EXACT compares the text; None skips the column.  The per-value
# tolerances were set from the change a much tighter flow tolerance
# (grad_tol 1e-8 instead of 1e-5) makes on existence-sweep: 1e-13 on
# energies and multipliers, 6e-6 on field-derived terms.
EXACT = 0.0
_DEFAULT_RTOL = 1e-9
_COLUMN_RTOL = {
    "constants": {},
    "eig": {"iterations_a": None, "iterations_b": None,
            "residual_a": None, "residual_b": None},
    "minimize": {"q_lambda": 1e-8, "multiplier_u": 1e-8, "multiplier_v": 1e-8,
                 "concentration": 1e-4, "status": EXACT, "case_id": EXACT,
                 "verdict": EXACT, "iterations": None, "el_residual": None},
    "asymptotics": {"scale": EXACT, "regime": EXACT, "fitted_coeff": 1e-6,
                    "intercept": 1e-6, "r_squared": 1e-6},
    "pohozaev": {"coupling_term": 1e-4, "interior_a": 1e-4, "interior_b": 1e-4,
                 "boundary_a": 1e-4, "boundary_b": 1e-4, "residual": None},
    "omega": {"unbounded_below": EXACT, "family_points": EXACT},
    "provenance": {"config_sha256": EXACT, "grading": EXACT, "version": EXACT},
}
# A concentrating flow stops on a 10-iteration detector cadence; its
# energy still falls by ~2.5e-7 (relative) per 10 iterations there, so a
# flow change that shifts the stopping iteration moves the values a little.
_WORKLOAD_RTOL = {
    "concentration": {"minimize": {"q_lambda": 1e-4, "multiplier_u": 1e-4,
                                   "multiplier_v": 1e-4}},
}

EIG_TOL = 1e-11          # lambda_tilde's default inverse-iteration tolerance
MONOTONE_SLACK = 1e-8    # criterion 13
SIGN_SLACK = 1e-8        # criterion 07


def read_tables(out_dir: Path) -> dict:
    """{table: [row dict of CSV text]} for every CSV the run wrote.

    The harness does not quote text fields, and the last column of
    asymptotics.csv (`regime`, e.g. "dim=4,k=2,l>2") holds commas, so
    surplus fields are joined back into the last column.
    """
    tables = {}
    for name in TABLES:
        path = Path(out_dir) / f"{name}.csv"
        if path.exists():
            lines = [ln for ln in path.read_text().splitlines()
                     if not ln.startswith("#")]
            header, *rows = csv.reader(lines)
            last = len(header) - 1
            tables[name] = [dict(zip(header, fields[:last] + [",".join(fields[last:])]))
                            for fields in rows]
    return tables


# ---------------------------------------------------------------------------
# closed forms, computed independently of critvar.constants (lgamma, not
# scipy's betaln)
# ---------------------------------------------------------------------------


def _moment(s: float, p: float) -> float:
    x = (s + 1.0) / 2.0
    return 0.5 * math.exp(math.lgamma(x) + math.lgamma(p - x) - math.lgamma(p))


def closed_form_constants(dim: int, a2: float, b2: float) -> dict:
    sigma = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    k1 = (dim - 2) ** 2 * sigma * _moment(dim + 1, dim)
    k2 = (sigma * _moment(dim - 1, dim)) ** ((dim - 2) / dim)
    k3 = sigma * _moment(dim - 1, dim - 2) if dim >= 5 else math.nan
    m_n = dim * (dim - 2) * (dim + 2) / (8.0 * (dim - 1))
    factor = 1.0 if dim == 4 else m_n
    return {"dimension": dim, "k1": k1, "k2": k2, "k3": k3,
            "sobolev_s": k1 / k2, "sphere_area": sigma, "slope_factor": m_n,
            "threshold_both": factor * (a2 + b2),
            "threshold_first": factor * a2, "threshold_second": factor * b2}


def _quadratic_coeff(weight) -> float:
    return weight.coefficient if weight.exponent == 2.0 else 0.0


# ---------------------------------------------------------------------------
# row checks
# ---------------------------------------------------------------------------


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _close(value: float, ref: float, rtol: float, scale: float) -> bool:
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= rtol * max(abs(ref), scale)


def _column_scales(ref_rows: list) -> dict:
    scales = {}
    for row in ref_rows:
        for col, text in row.items():
            x = abs(_number(text))
            if math.isfinite(x):
                scales[col] = max(scales.get(col, 0.0), x)
    return scales


def _snapshot_errors(workload, table, row, ref_row, scales) -> list:
    errors = []
    if list(row) != list(ref_row):
        return [f"columns {list(row)} differ from reference {list(ref_row)}"]
    rtols = {**_COLUMN_RTOL[table], **_WORKLOAD_RTOL.get(workload, {}).get(table, {})}
    for col, ref_text in ref_row.items():
        rtol = rtols.get(col, _DEFAULT_RTOL)
        if rtol is None:
            continue
        text = row[col]
        if rtol == EXACT:
            ok = text == ref_text
        else:
            ok = _close(_number(text), _number(ref_text), rtol, scales.get(col, 0.0))
        if not ok:
            errors.append(f"{col}={text} vs reference {ref_text} (rtol {rtol:g})")
    return errors


def _invariant_errors(workload, table, rows, i, scenario, min_uv) -> list:
    """Invariants of row i of `table`, given all rows of that table."""
    row = rows[i]
    f = {k: _number(v) for k, v in row.items()}
    errors = []
    a, b = scenario.weight_a, scenario.weight_b
    const = closed_form_constants(scenario.dimension, _quadratic_coeff(a),
                                  _quadratic_coeff(b))
    level = a.gamma0 * const["sobolev_s"]

    def need(cond, what):
        if not cond:
            errors.append(what)

    if table == "constants":
        for key, expected in const.items():
            need(_close(f[key], expected, 1e-11, 0.0),
                 f"{key}={row[key]} vs closed form {expected!r}")
    elif table == "eig":
        for side in ("a", "b"):
            need(f[f"residual_{side}"] <= 100.0 * EIG_TOL * f[f"lambda1_{side}"],
                 f"eigen-residual_{side} {row[f'residual_{side}']} above 100*tol*lambda")
    elif table == "omega":
        lo, hi = f["lower_bound"], f["upper_bound"]
        need(math.isnan(lo) or lo <= f["value"], f"omega {f['value']} below lower bound {lo}")
        need(math.isnan(hi) or f["value"] <= hi, f"omega {f['value']} above upper bound {hi}")
    elif table == "minimize" and workload == "existence-sweep":
        need(row["status"] == "converged", f"status {row['status']}")
        need(f["el_residual"] <= scenario.flow.grad_tol,
             f"el_residual {row['el_residual']} above grad_tol")
        need(0.0 <= f["q_lambda"] < level, f"Q {row['q_lambda']} outside [0, gamma0*S)")
        if i > 0:
            need(f["q_lambda"] - _number(rows[i - 1]["q_lambda"]) <= MONOTONE_SLACK,
                 "Q increases with lambda")
        need(row["verdict"] == "achieved_by_theorem", f"verdict {row['verdict']}")
        need(min_uv.get(f["lambda"], -math.inf) >= -SIGN_SLACK,
             f"min(u*v) {min_uv.get(f['lambda'])} below -{SIGN_SLACK:g}")
    elif table == "minimize" and workload == "concentration":
        need(row["status"] == "concentrating", f"status {row['status']}")
        need(f["concentration"] > 0.99, f"concentration {row['concentration']}")
        need(abs(f["q_lambda"] - level) / level < 0.03,
             f"|Q - S|/S = {abs(f['q_lambda'] - level) / level:.3g} not below 0.03")
    return errors


def check_run(workload: str, scenario, tables: dict, reference: dict,
              min_uv: dict) -> tuple[int, int, list]:
    """(attempted rows, failed rows, messages) for one run's output."""
    attempted = failed = 0
    messages = []
    for table, ref_rows in reference.items():
        rows = tables.get(table, [])
        scales = _column_scales(ref_rows)
        for i in range(max(len(rows), len(ref_rows))):
            attempted += 1
            if i >= len(rows) or i >= len(ref_rows):
                errors = ["row missing" if i >= len(rows) else "extra row"]
            else:
                errors = (_snapshot_errors(workload, table, rows[i], ref_rows[i], scales)
                          + _invariant_errors(workload, table, rows, i, scenario, min_uv))
            if errors:
                failed += 1
                messages.append(f"{table}[{i}]: " + "; ".join(errors))
    for table in tables.keys() - reference.keys():
        attempted += len(tables[table])
        failed += len(tables[table])
        messages.append(f"{table}: table not in the reference")
    return attempted, failed, messages


def expected_rows(reference: dict) -> int:
    return sum(len(rows) for rows in reference.values())
