"""Scenario configuration, orchestration, and CSV/plot emission.

A scenario is described by a flat-sectioned key/value config document
([domain], [weights.a], [weights.b], [flow], [sweep], [output]) with a
`schema = 1` version key.  Running a scenario executes the requested
analyses in dependency order — closed-form constants, first eigenpairs,
the coupling sweep of the descent flow, concentration-curve fits, the
scaling-quotient estimate, and dilation-identity reports for every
converged coupling — and emits one CSV per analysis plus optional SVG
plots.  Outputs are deterministic for a fixed (config, seed); the only
non-reproducible byte is the timestamp comment above each CSV header.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (default_eps_ladder, energy_curves,
                          expansion_prediction, fit_expansion)
from .constants import bubble_constants, quadratic_part, slope_factor, thresholds
from .errors import (ConfigError, EmptyReport, IoError, LogScaledRegime,
                     OutsideTable, UnderResolvedBubble)
from .grid import RadialGrid, build_grid
from .minimizer import FlowParams, existence_verdict, sweep_minimize
from .nonexistence import omega_estimate, pohozaev_report
from .spectral import lambda_tilde
from .weights import WeightProfile

ANALYSES = ("constants", "eig", "minimize", "asymptotics", "pohozaev", "omega")
_NEED_COUPLINGS = {"minimize", "asymptotics", "pohozaev"}
_BELOW_N4 = {"eig", "omega"}        # the others need closed forms defined for N >= 4
SCHEMA_VERSION = 1

_DOMAIN_KEYS = {"schema", "dimension", "radius", "cells", "grading", "ratio", "mode"}
_WEIGHT_KEYS = {"gamma0", "exponent", "coefficient",
                "perturbation_r", "perturbation_theta"}
_FLOW_KEYS = {f.name for f in fields(FlowParams)}
# a [flow] value is converted by its FlowParams field's annotation (a string)
_FLOW_TYPES = {"float": float, "int": int, "str": str, "float | None": float}
_SWEEP_KEYS = {"lambdas", "start", "stop", "step"}
_OUTPUT_KEYS = {"directory", "analyses", "plots"}


@dataclass(frozen=True)
class Scenario:
    dimension: int
    radius: float
    cells: int
    grading: str
    grading_ratio: float | None
    mode: str                       # theorem | machinery
    weight_a: WeightProfile
    weight_b: WeightProfile
    lambdas: tuple
    flow: FlowParams
    out_dir: str
    analyses: tuple
    plots: bool

    def __post_init__(self):
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

    def build_grid(self) -> RadialGrid:
        return build_grid(self.dimension, self.radius, self.cells,
                          grading=self.grading, ratio=self.grading_ratio)


# ---------------------------------------------------------------------------
# config parsing and serialization
# ---------------------------------------------------------------------------


def _check_keys(parser, section: str, allowed: set):
    if not parser.has_section(section):
        return
    for key in parser[section]:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")


@contextmanager
def _values_of(section: str):
    """Report a value the section's parsing rejects as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad value in [{section}]: {exc}") from exc


def _parse_weight(parser, section: str) -> WeightProfile:
    if not parser.has_section(section):
        raise ConfigError(f"missing section [{section}]")
    _check_keys(parser, section, _WEIGHT_KEYS)
    sec = parser[section]
    with _values_of(section):
        gamma0 = sec.getfloat("gamma0")
        exponent = sec.getfloat("exponent", fallback=2.0)
        coefficient = sec.getfloat("coefficient", fallback=0.0)
        if gamma0 is None:
            raise ConfigError(f"missing key 'gamma0' in section [{section}]")
        perturbation = None
        if "perturbation_r" in sec or "perturbation_theta" in sec:
            if "perturbation_r" not in sec or "perturbation_theta" not in sec:
                raise ConfigError(
                    f"[{section}] needs both perturbation_r and perturbation_theta"
                )
            r_tab = tuple(float(x) for x in sec["perturbation_r"].split())
            t_tab = tuple(float(x) for x in sec["perturbation_theta"].split())
            if len(r_tab) != len(t_tab):
                raise ConfigError(f"perturbation tables in [{section}] differ in length")
            perturbation = (r_tab, t_tab)
        return WeightProfile(gamma0=gamma0, exponent=exponent,
                             coefficient=coefficient, perturbation=perturbation)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a config document; defaults are filled in."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    for section in parser.sections():
        if section not in ("domain", "weights.a", "weights.b", "flow",
                           "sweep", "output"):
            raise ConfigError(f"unknown section [{section}]")
    if not parser.has_section("domain"):
        raise ConfigError("missing section [domain]")
    _check_keys(parser, "domain", _DOMAIN_KEYS)
    _check_keys(parser, "flow", _FLOW_KEYS)
    _check_keys(parser, "sweep", _SWEEP_KEYS)
    _check_keys(parser, "output", _OUTPUT_KEYS)

    dom = parser["domain"]
    with _values_of("domain"):
        schema = dom.getint("schema", fallback=SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {schema}")
        dimension = dom.getint("dimension")
        if dimension is None:
            raise ConfigError("missing key 'dimension' in section [domain]")
        radius = dom.getfloat("radius", fallback=1.0)
        cells = dom.getint("cells", fallback=2000)
        ratio = dom.getfloat("ratio", fallback=None)
    grading = dom.get("grading", fallback="uniform")
    mode = dom.get("mode", fallback="theorem")
    if mode not in ("theorem", "machinery"):
        raise ConfigError(f"unknown mode {mode!r}")

    weight_a = _parse_weight(parser, "weights.a")
    weight_b = _parse_weight(parser, "weights.b")

    flow = FlowParams()
    if parser.has_section("flow"):
        sec = parser["flow"]
        with _values_of("flow"):
            flow = FlowParams(**{f.name: _FLOW_TYPES[f.type](sec[f.name])
                                 for f in fields(FlowParams) if f.name in sec})

    lambdas: tuple = ()
    if parser.has_section("sweep"):
        sec = parser["sweep"]
        if "lambdas" in sec:
            if "start" in sec or "stop" in sec or "step" in sec:
                raise ConfigError("[sweep] takes either 'lambdas' or a range, not both")
            with _values_of("sweep"):
                lambdas = tuple(float(x) for x in sec["lambdas"].split())
        elif "start" in sec:
            with _values_of("sweep"):
                start = sec.getfloat("start")
                stop = sec.getfloat("stop")
                step = sec.getfloat("step")
            if stop is None or step is None or step <= 0.0:
                raise ConfigError("[sweep] range needs start, stop, and positive step")
            count = int(math.floor((stop - start) / step + 1e-12)) + 1
            lambdas = tuple(start + i * step for i in range(max(count, 0)))

    out_dir = "out"
    analyses = ANALYSES
    plots = False
    if parser.has_section("output"):
        sec = parser["output"]
        out_dir = sec.get("directory", fallback=out_dir)
        if "analyses" in sec:
            analyses = tuple(sec["analyses"].split())
        with _values_of("output"):
            plots = sec.getboolean("plots", fallback=False)

    return Scenario(
        dimension=dimension, radius=radius, cells=cells, grading=grading,
        grading_ratio=ratio, mode=mode, weight_a=weight_a, weight_b=weight_b,
        lambdas=lambdas, flow=flow, out_dir=out_dir, analyses=analyses,
        plots=plots,
    )


def serialize_scenario(s: Scenario) -> str:
    """Config text that parses back to an identical Scenario."""
    parser = configparser.ConfigParser()
    parser["domain"] = {
        "schema": str(SCHEMA_VERSION),
        "dimension": str(s.dimension),
        "radius": repr(s.radius),
        "cells": str(s.cells),
        "grading": s.grading,
        "mode": s.mode,
    }
    if s.grading_ratio is not None:
        parser["domain"]["ratio"] = repr(s.grading_ratio)
    for name, w in (("weights.a", s.weight_a), ("weights.b", s.weight_b)):
        parser[name] = {
            "gamma0": repr(w.gamma0),
            "exponent": repr(w.exponent),
            "coefficient": repr(w.coefficient),
        }
        if w.perturbation is not None:
            r_tab, t_tab = w.perturbation
            parser[name]["perturbation_r"] = " ".join(repr(x) for x in r_tab)
            parser[name]["perturbation_theta"] = " ".join(repr(x) for x in t_tab)
    parser["flow"] = {k: repr(v) if isinstance(v, float) else str(v)
                      for k, v in asdict(s.flow).items() if v is not None}
    parser["sweep"] = {"lambdas": " ".join(repr(x) for x in s.lambdas)}
    parser["output"] = {
        "directory": s.out_dir,
        "analyses": " ".join(s.analyses),
        "plots": str(s.plots).lower(),
    }
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


def _exponent_regime(w: WeightProfile) -> tuple[float, float]:
    """(effective exponent, coefficient); a constant weight has no growth
    and behaves like an arbitrarily large exponent."""
    if w.coefficient == 0.0:
        return math.inf, 0.0
    return w.exponent, w.coefficient


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
    if not (wanted if scenario.lambdas else wanted - _NEED_COUPLINGS):
        raise ConfigError("no analysis to run: none requested, or all need [sweep] couplings")
    if scenario.dimension < 4 and wanted - _BELOW_N4:
        raise ConfigError(f"below N = 4 only eig and omega run; "
                          f"{' '.join(sorted(wanted - _BELOW_N4))} need N >= 4")
    grid = scenario.build_grid()
    a, b = scenario.weight_a, scenario.weight_b
    k, a_k = _exponent_regime(a)
    l, b_l = _exponent_regime(b)
    failures: list[str] = []
    tables = {name: [] for name in ANALYSES}

    if "constants" in wanted:
        const = bubble_constants(scenario.dimension)
        try:
            k3 = const.k3
        except LogScaledRegime:
            k3 = float("nan")
        thr = thresholds(scenario.dimension, quadratic_part(k, a_k), quadratic_part(l, b_l))
        tables["constants"].append({
            "dimension": scenario.dimension,
            "k1": const.k1, "k2": const.k2, "k3": k3,
            "sobolev_s": const.s, "sphere_area": const.sigma,
            "slope_factor": slope_factor(scenario.dimension),
            "threshold_both": thr.gamma_n,
            "threshold_first": thr.gamma_tilde_a,
            "threshold_second": thr.gamma_tilde_b,
        })

    # eigenpairs are needed by minimize verdicts even when not requested
    need_eig = bool({"eig", "minimize"} & wanted)
    spec = lambda_tilde(a, b, grid) if need_eig else None
    if "eig" in wanted:
        tables["eig"].append({
            "lambda_tilde": spec.value,
            "lambda1_a": spec.first_a.lambda1,
            "lambda1_b": spec.first_b.lambda1,
            "iterations_a": spec.first_a.iterations,
            "iterations_b": spec.first_b.iterations,
            "residual_a": spec.first_a.residual,
            "residual_b": spec.first_b.residual,
        })

    omega_value = None
    omega_certified = None        # only a certified lower bound may rule out
    #                               minimizers; the radial estimate is an
    #                               upper estimate of the quotient infimum
    if "omega" in wanted:
        est = omega_estimate(a, b, grid)
        omega_value, omega_certified = est.value, est.lower_bound
        tables["omega"].append({
            "value": est.value,
            "unbounded_below": est.unbounded_below,
            "lower_bound": math.nan if est.lower_bound is None else est.lower_bound,
            "upper_bound": math.nan if est.upper_bound is None else est.upper_bound,
            "family_points": len(est.family_values),
        })

    results: dict = {}
    if "minimize" in wanted and scenario.lambdas:
        for row in sweep_minimize(scenario.lambdas, a, b, grid, scenario.flow):
            res = row.result
            results[row.lam] = res
            verdict = existence_verdict(scenario.dimension, k, l, a_k, b_l, row.lam,
                                        spec.value, omega_estimate=omega_certified)
            gap_thr = verdict.thresholds_used["gap_threshold"]
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
                "lambda_tilde": spec.value,
                "gap_threshold": math.nan if gap_thr is None else gap_thr,
                "omega": math.nan if omega_value is None else omega_value,
            })

    if "asymptotics" in wanted and scenario.lambdas:
        cutoff = grid.radius / 2.0
        try:
            ladder = default_eps_ladder(grid, cutoff)
        except UnderResolvedBubble as exc:
            failures.append(f"asymptotics: {exc}")
            ladder = None
        if ladder is not None:
            preds = []
            for lam in scenario.lambdas:
                try:
                    preds.append((lam, expansion_prediction(
                        scenario.dimension, k, l, a_k, b_l, lam)))
                except OutsideTable as exc:
                    preds.append((lam, exc))
            fitted = [lam for lam, p in preds if not isinstance(p, OutsideTable)]
            curves = iter(energy_curves(fitted, a, b, ladder, grid, cutoff)
                          if fitted else ())
            for lam, pred in preds:
                if isinstance(pred, OutsideTable):
                    tables["asymptotics"].append({
                        "lambda": lam, "scale": "outside_table", "power": math.nan,
                        "predicted_coeff": math.nan, "fitted_coeff": math.nan,
                        "intercept": math.nan, "r_squared": math.nan,
                        "regime": str(pred),
                    })
                    continue
                fit = fit_expansion(next(curves), pred.scale, pred.power, pred.regime)
                tables["asymptotics"].append({
                    "lambda": lam, "scale": pred.scale, "power": pred.power,
                    "predicted_coeff": math.nan if pred.coeff is None else pred.coeff,
                    "fitted_coeff": fit.leading_coeff,
                    "intercept": fit.intercept, "r_squared": fit.r_squared,
                    "regime": pred.regime,
                })

    if "pohozaev" in wanted:
        for lam, res in sorted(results.items()):
            if res.status == "converged":
                rep = pohozaev_report(res.pair, res.multiplier_u, res.multiplier_v,
                                      lam, a, b, grid)
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


def emit_plot(series: list, path, xlabel: str, ylabel: str,
              verticals: dict | None = None) -> None:
    """Self-contained SVG line chart; series is a list of
    (label, x array, y array)."""
    try:
        import matplotlib
        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise IoError(f"plot emission needs matplotlib: {exc}") from exc
    fig, ax = plt.subplots(figsize=(6.0, 4.0))
    for label, x, y in series:
        ax.plot(x, y, marker="o", markersize=3, label=label)
    if verticals:
        for label, x0 in verticals.items():
            ax.axvline(x0, linestyle="--", linewidth=1.0, label=label)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.legend(fontsize=8)
    fig.tight_layout()
    try:
        fig.savefig(path, format="svg")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        plt.close(fig)


def write_report(report: RunReport, out_dir=None, plots: bool | None = None) -> list:
    """Write one CSV per populated analysis (plus provenance); returns the
    written paths."""
    out = Path(out_dir if out_dir is not None else report.scenario.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc
    if plots is None:
        plots = report.scenario.plots
    written = []
    for name in ANALYSES:
        if report.tables[name]:
            path = out / f"{name}.csv"
            emit_csv(report.tables[name], path)
            written.append(path)
    prow = dict(report.provenance)
    emit_csv([prow], out / "provenance.csv", timestamp=False)
    written.append(out / "provenance.csv")

    rows = report.tables["minimize"]
    if plots and rows:
        lams = np.array([r["lambda"] for r in rows])
        qs = np.array([r["q_lambda"] for r in rows])
        verticals = {}
        gap = rows[0]["gap_threshold"]
        if math.isfinite(gap):
            verticals["gap threshold"] = gap
        verticals["lambda_tilde"] = rows[0]["lambda_tilde"]
        path = out / "minimize.svg"
        emit_plot([("Q(lambda)", lams, qs)], path,
                  xlabel="lambda", ylabel="Q", verticals=verticals)
        written.append(path)
    return written
