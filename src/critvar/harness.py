"""Scenario configuration, orchestration, and CSV emission.

A scenario is described by a flat-sectioned key/value config document
([domain], [weights.a], [weights.b], [flow], [sweep], [output]) with a
`schema = 1` version key.  Running a scenario executes the requested
analyses in dependency order — closed-form constants, first eigenpairs,
the coupling sweep of the descent flow, concentration-curve fits, the
scaling-quotient estimate, and dilation-identity reports for every
converged coupling — and emits one CSV per analysis.  Outputs are
deterministic for a fixed (config, seed); the only non-reproducible byte
is the timestamp comment above each CSV header.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import math
from dataclasses import MISSING, asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .asymptotics import (ExpansionFit, default_eps_ladder, energy_curves,
                          fit_expansion)
from .constants import (SCALE_OUTSIDE, bubble_constants, case_of, existence_verdict,
                        expansion_prediction, slope_factor)
from .errors import ConfigError, EmptyReport, IoError, UnderResolvedBubble
from .grid import RadialGrid, build_grid
from .minimizer import FlowParams, sweep_minimize
from .nonexistence import omega_estimate, pohozaev_report
from .spectral import first_eigenpair
from .weights import WeightProfile

ANALYSES = ("constants", "eig", "minimize", "asymptotics", "pohozaev", "omega")
_NEED_COUPLINGS = {"minimize", "asymptotics", "pohozaev"}
_BELOW_N4 = {"eig", "omega"}        # the others need closed forms defined for N >= 4
SCHEMA_VERSION = 1
_MAX_COUPLINGS = 10_000             # per [sweep]; the benchmark's largest sweep has 48


@dataclass(frozen=True)
class Scenario:
    dimension: int
    radius: float
    cells: int
    grading: str
    ratio: float | None
    mode: str                       # theorem | machinery
    weight_a: WeightProfile
    weight_b: WeightProfile
    lambdas: tuple
    flow: FlowParams
    out_dir: str
    analyses: tuple
    plots: bool                     # must be False: kept so config_sha256 is unchanged

    def __post_init__(self):
        if self.mode not in ("theorem", "machinery"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        lo = 4 if self.mode == "theorem" else 2
        if not lo <= self.dimension <= 8:
            raise ConfigError(
                f"dimension {self.dimension} outside [{lo}, 8] for {self.mode} mode"
            )
        if self.weight_a.gamma0 != self.weight_b.gamma0:
            raise ConfigError(
                "the two weights must share the same center value gamma0"
            )
        bad = [x for x in self.analyses if x not in ANALYSES]
        if bad:
            raise ConfigError(f"unknown analyses {bad}")
        if not all(map(math.isfinite, self.lambdas)):
            raise ConfigError(f"couplings must be finite, got {tuple(self.lambdas)}")
        if any(lam < 0.0 for lam in self.lambdas):
            # the pool's (|u|, |v|) candidates are minimal only for lam >= 0
            raise ConfigError(f"couplings must be nonnegative, got {tuple(self.lambdas)}: "
                              "Q(-lam) = Q(lam), as E_-lam(u, -v) = E_lam(u, v)")
        if self.plots:
            raise ConfigError("plots must be false: a run writes only its CSV tables")

    def build_grid(self) -> RadialGrid:
        return build_grid(self.dimension, self.radius, self.cells,
                          grading=self.grading, ratio=self.ratio)


# ---------------------------------------------------------------------------
# config parsing and serialization
# ---------------------------------------------------------------------------


def _finite(text: str) -> float:
    """A float key's reader: every number of the format is finite."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def _floats(text: str) -> tuple:
    return tuple(map(_finite, text.split()))


def _words(text: str) -> tuple:
    return tuple(text.split())


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# The scenario format, in the order serialize_scenario writes it:
# section -> key -> (reader of the key's text, default).  MISSING marks a
# required key; None an optional one, written only when set.  The two
# weight sections share one row set; a [flow] key is read by its
# FlowParams field's annotation (a string).
_FLOW_TYPES = {"float": _finite, "int": int, "str": str}
_WEIGHT_FORMAT = {"gamma0": (_finite, MISSING), "exponent": (_finite, 2.0),
                  "coefficient": (_finite, 0.0), "perturbation_r": (_floats, None),
                  "perturbation_theta": (_floats, None)}
_FORMAT = {
    "domain": {"schema": (int, SCHEMA_VERSION), "dimension": (int, MISSING),
               "radius": (_finite, 1.0), "cells": (int, 2000),
               "grading": (str, "uniform"), "mode": (str, "theorem"),
               "ratio": (_finite, None)},
    "weights.a": _WEIGHT_FORMAT,
    "weights.b": _WEIGHT_FORMAT,
    "flow": {f.name: (_FLOW_TYPES[f.type], f.default) for f in fields(FlowParams)},
    "sweep": {"lambdas": (_floats, None), "start": (_finite, None),
              "stop": (_finite, None), "step": (_finite, None)},
    "output": {"directory": (str, "out"), "analyses": (_words, ANALYSES),
               "plots": (_boolean, False)},
}
# a [domain] or [output] key names the Scenario field of the same name,
# except directory; [domain]'s schema is a version check, not a field
_FIELD = {"directory": "out_dir"}


def _section(parser, name: str, build=dict):
    """build(**values) of section `name`, each key read by its reader or
    given its default.  An unknown key, a bad value, a missing required key
    and a ValueError from build are each a ConfigError naming the key or
    the section."""
    given = parser[name] if parser.has_section(name) else {}
    for key in given:
        if key not in _FORMAT[name]:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
    values = {}
    for key, (read, default) in _FORMAT[name].items():
        if key not in given and default is MISSING:
            raise ConfigError(f"missing key {key!r} in section [{name}]")
        try:
            values[key] = read(given[key]) if key in given else default
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in [{name}]: {exc}") from exc
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def _weight(perturbation_r, perturbation_theta, **profile) -> WeightProfile:
    """A weight section's profile; its two tables come together."""
    if (perturbation_r is None) != (perturbation_theta is None):
        raise ValueError("needs both perturbation_r and perturbation_theta")
    table = None if perturbation_r is None else (perturbation_r, perturbation_theta)
    return WeightProfile(perturbation=table, **profile)


def _couplings(lambdas, start, stop, step) -> tuple:
    """`lambdas`, or the range start, start + step, ... up to stop (with
    rounding slack); a range needs all three keys.  Either holds at most
    _MAX_COUPLINGS couplings, a range counted before it is built."""
    span = (start, stop, step)
    if span == (None,) * 3:
        lambdas = () if lambdas is None else lambdas
        last = len(lambdas) - 1
    elif lambdas is not None:
        raise ValueError("takes either 'lambdas' or a range, not both")
    elif None in span or step <= 0.0:
        raise ValueError("a range needs start, stop, and positive step")
    else:                           # the range's last index; inf where it overflows
        last = max((stop - start) / step + 1e-12, -1.0)
    if last >= _MAX_COUPLINGS:
        raise ValueError(f"{last + 1:.6g} couplings; a sweep holds at most {_MAX_COUPLINGS}")
    return lambdas if lambdas is not None else tuple(
        start + i * step for i in range(int(math.floor(last)) + 1))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a config document; defaults are filled in."""
    # no header names the default section: [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for name in parser.sections():
        if name not in _FORMAT:
            raise ConfigError(f"unknown section [{name}]")
    top = {**_section(parser, "domain"), **_section(parser, "output")}
    schema = top.pop("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema}")
    return Scenario(
        **{_FIELD.get(key, key): value for key, value in top.items()},
        weight_a=_section(parser, "weights.a", _weight),
        weight_b=_section(parser, "weights.b", _weight),
        lambdas=_section(parser, "sweep", _couplings),
        flow=_section(parser, "flow", FlowParams),
    )


def _text(value) -> str:
    """A value as config text its key's reader reads back."""
    if isinstance(value, bool):
        return str(value).lower()
    if not isinstance(value, str) and hasattr(value, "__iter__"):
        return " ".join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def serialize_scenario(s: Scenario) -> str:
    """Config text that parses back to an identical Scenario."""
    values = {name: {key: getattr(s, _FIELD.get(key, key)) for key in _FORMAT[name]
                     if key != "schema"} for name in ("domain", "output")}
    values["domain"]["schema"] = SCHEMA_VERSION
    values["flow"] = asdict(s.flow)
    values["sweep"] = {"lambdas": s.lambdas}
    for name, w in (("weights.a", s.weight_a), ("weights.b", s.weight_b)):
        r_tab, t_tab = w.perturbation or (None, None)
        values[name] = {**vars(w), "perturbation_r": r_tab, "perturbation_theta": t_tab}
    parser = configparser.ConfigParser(interpolation=None)
    for name, keys in _FORMAT.items():
        parser[name] = {key: _text(values[name][key]) for key in keys
                        if values[name].get(key) is not None}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    scenario: Scenario
    provenance: dict
    tables: dict                    # analysis name -> CSV rows, for each of ANALYSES
    failures: list
    minimize_results: dict          # lam -> MinimizeResult, for callers


def run(scenario: Scenario, jobs: int = 1) -> RunReport:
    """Execute the requested analyses in dependency order.

    The sweep always runs in sequence.  `jobs` is kept only for the
    `perfbench/` scripts that pass `jobs=1`; any other value is a ConfigError.
    """
    if jobs != 1:
        raise ConfigError(f"jobs must be 1, got {jobs!r}: the sweep runs in sequence")
    wanted = set(scenario.analyses)
    if "pohozaev" in wanted:    # its rows describe minimize's pairs
        wanted.add("minimize")
    if scenario.dimension < 4 and wanted - _BELOW_N4:
        raise ConfigError(f"below N = 4 only eig and omega run; "
                          f"{' '.join(sorted(wanted - _BELOW_N4))} need N >= 4")
    if not scenario.lambdas:    # no coupling to run these on
        wanted -= _NEED_COUPLINGS
    if not wanted:
        raise ConfigError("no analysis to run: none requested, or all need [sweep] couplings")
    grid = scenario.build_grid()
    a, b = scenario.weight_a, scenario.weight_b
    # the case table's row; below N = 4 only eig and omega run, and neither reads it
    case = case_of(scenario.dimension, a, b) if scenario.dimension >= 4 else None
    failures: list[str] = []
    tables = {name: [] for name in ANALYSES}

    if "constants" in wanted:
        const = bubble_constants(scenario.dimension)
        tables["constants"].append({
            "dimension": scenario.dimension,
            "k1": const.k1, "k2": const.k2, "k3": const.k3,
            "sobolev_s": const.s, "sphere_area": const.sigma,
            "slope_factor": slope_factor(scenario.dimension),
            "threshold_both": case.threshold_both,
            "threshold_first": case.threshold_first,
            "threshold_second": case.threshold_second,
        })

    # eigenpairs are needed by minimize verdicts even when not requested
    if {"eig", "minimize"} & wanted:
        # a and b assembling to identical conductances share one result
        eig_a, eig_b = first_eigenpair(a, grid), first_eigenpair(b, grid)
        lam_tilde = min(eig_a.lambda1, eig_b.lambda1)
    if "eig" in wanted:
        tables["eig"].append({
            "lambda_tilde": lam_tilde,
            "lambda1_a": eig_a.lambda1,
            "lambda1_b": eig_b.lambda1,
            "iterations_a": eig_a.iterations,
            "iterations_b": eig_b.iterations,
            "residual_a": eig_a.residual,
            "residual_b": eig_b.residual,
        })

    # a certified lower bound, never the (upper) estimate, may rule out minimizers
    omega_value = omega_certified = math.nan
    if "omega" in wanted:
        est = omega_estimate(a, b, grid)
        omega_value, omega_certified = est.value, est.lower_bound
        tables["omega"].append({
            "value": est.value,
            "unbounded_below": est.unbounded_below,
            "lower_bound": est.lower_bound,
            "upper_bound": est.upper_bound,
            "family_points": len(est.family_values),
        })

    results: dict = {}
    if "minimize" in wanted:
        for row in sweep_minimize(scenario.lambdas, a, b, grid, scenario.flow):
            res = row.result
            results[row.lam] = res
            verdict = existence_verdict(case, row.lam, lam_tilde,
                                        omega_estimate=omega_certified)
            tables["minimize"].append({
                "lambda": row.lam,
                "q_lambda": res.q_lambda,
                "status": res.status,
                "iterations": res.iterations,
                "el_residual": res.el_residual,
                "multiplier_u": res.multiplier_u,
                "multiplier_v": res.multiplier_v,
                "concentration": res.concentration,
                "case_id": verdict.case_id,
                "verdict": verdict.verdict,
                "lambda_tilde": lam_tilde,
                "gap_threshold": case.gap,
                "omega": omega_value,
            })

    if "asymptotics" in wanted:
        cutoff = grid.radius / 2.0
        try:
            ladder = default_eps_ladder(grid, cutoff)
        except UnderResolvedBubble as exc:
            failures.append(f"asymptotics: {exc}")
        else:
            # the table's row, so its scale, depends on (N, k, l) alone: the
            # first coupling's prediction holds for every coupling, and one
            # least-squares solve fits every curve
            preds = [expansion_prediction(case, lam) for lam in scenario.lambdas]
            if preds[0].scale == SCALE_OUTSIDE:
                fits = [ExpansionFit(math.nan, math.nan, math.nan)] * len(preds)
            else:
                curves = energy_curves(scenario.lambdas, a, b, ladder, grid, cutoff)
                fits = fit_expansion(ladder, curves, preds[0].scale, preds[0].power)
            tables["asymptotics"] = [{
                "lambda": lam, "scale": pred.scale, "power": pred.power,
                "predicted_coeff": pred.coeff,
                "fitted_coeff": fit.leading_coeff,
                "intercept": fit.intercept, "r_squared": fit.r_squared,
                "regime": pred.regime,
            } for lam, pred, fit in zip(scenario.lambdas, preds, fits)]

    if "pohozaev" in wanted:
        for lam, res in sorted(results.items()):
            if res.status == "converged":
                rep = pohozaev_report(res.pair, lam, a, b, grid)
                tables["pohozaev"].append({"lambda": lam, **asdict(rep)})
        if not tables["pohozaev"]:
            failures.append("pohozaev: no coupling converged")

    provenance = {
        "config_sha256": hashlib.sha256(
            serialize_scenario(scenario).encode()).hexdigest(),
        "cells": scenario.cells,
        "grading": scenario.grading,
        "version": __version__,
    }
    return RunReport(
        scenario=scenario, provenance=provenance, tables=tables,
        failures=failures, minimize_results=results,
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _format_value(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def emit_csv(rows: list, path, timestamp: bool = True) -> None:
    """Write rows (dicts sharing a key order) with 17-significant-digit,
    locale-independent numbers and minimally quoted text.  The only
    non-deterministic byte is the optional timestamp comment above the header."""
    if not rows:
        raise EmptyReport(f"no rows to write to {path}")
    header = list(rows[0].keys())
    buf = io.StringIO()
    if timestamp:
        buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if list(row.keys()) != header:
            raise EmptyReport("rows disagree on columns")
        writer.writerow([_format_value(row[k]) for k in header])
    try:
        Path(path).write_text(buf.getvalue())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_report(report: RunReport, out_dir=None) -> list:
    """Write one CSV per populated analysis (plus provenance); returns the
    written paths."""
    out = Path(out_dir if out_dir is not None else report.scenario.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc
    written = []
    for name in ANALYSES:
        if report.tables[name]:
            path = out / f"{name}.csv"
            emit_csv(report.tables[name], path)
            written.append(path)
    prow = dict(report.provenance)
    emit_csv([prow], out / "provenance.csv", timestamp=False)
    written.append(out / "provenance.csv")
    return written
