"""Benchmark of critvar's public harness on three seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; critvar is imported from its `src/`.
Each run generates the workload's scenario INI from the seed (see
`workloads.py`), then drives `parse_scenario` -> `run` -> `write_report`
in this process with `jobs=1`, closed loop with one client, for `--seconds`
seconds.  Every run's CSV output is checked (see `checks.py`).

--trace 0 measures the end-to-end metrics with tracing off:
  wall_rel     median wall time of run + write_report (wall_s), divided by
               the median wall time of a fixed speed kernel timed
               between the runs; it cancels the drift in machine speed
  setup_s      median over fresh processes of the time to import critvar,
               parse the scenario and build its grid
  peak_rss_mb  peak resident set of this process after the measured runs
It also prints wall_s, wall_tail_s and failed_ratio, which README.md
explains are not in BENCHMARK.json.

--trace 1 runs the workload untraced for a third of the time, then with
every public critvar function and method wrapped (`tracer.py`) for the
rest, and reports per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# one BLAS thread: the largest array is 3001 doubles, far below any
# threading threshold, so a second thread would only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from scipy.linalg import solveh_banded  # noqa: E402

from checks import check_run, expected_rows, read_tables  # noqa: E402
from tracer import LAYERS, Tracer, aggregate, layer_of, write_spans  # noqa: E402
from workloads import WORKLOADS, scenario_ini, variant_of  # noqa: E402

SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60.0
KERNEL_SHARE = 0.1   # speed-kernel time per unit of scenario time
END_TO_END_UNITS = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def import_critvar():
    if not (SRC / "critvar" / "__init__.py").is_file():
        raise BenchError(f"no critvar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import critvar
    import critvar.cli  # noqa: F401  (so that the tracer sees every module)
    import critvar.harness
    if Path(critvar.__file__).resolve().parent != (SRC / "critvar").resolve():
        raise BenchError(f"critvar imported from {critvar.__file__}, not {SRC}")
    return critvar


def load_reference(workload: str, seed: int) -> dict:
    """{table: [row dict of CSV text]} of the seed's input variant."""
    path = REFERENCE / f"{workload}.json"
    tables = json.loads(path.read_text())["variants"][str(variant_of(seed))]
    return {name: [dict(zip(t["columns"], row)) for row in t["rows"]]
            for name, t in tables.items()}


# ---------------------------------------------------------------------------
# set-up time and import cost, each in a fresh process
# ---------------------------------------------------------------------------


def _probe(ini_path: Path, extra_args=()) -> tuple[float, str]:
    """(seconds from process start to `ready`, standard error)."""
    cmd = [sys.executable, *extra_args, str(HERE / "probe.py"), str(ini_path)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed ({proc.returncode}): {err.strip()[-2000:]}")
    return elapsed, err


def measure_imports(ini_path: Path) -> dict:
    """Self import time per package family, from `python -X importtime`."""
    _, err = _probe(ini_path, ("-X", "importtime"))
    totals = {"critvar": 0.0, "numpy": 0.0, "scipy": 0.0, "total": 0.0}
    for line in err.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        family = name.strip().split(".")[0]
        seconds = int(self_us) * 1e-6
        totals["total"] += seconds
        if family in totals:
            totals[family] += seconds
    return {f"import.{k}_s": v for k, v in totals.items()}


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

_KERNEL_N = 1500
_KERNEL_BANDS = np.vstack([np.r_[0.0, np.full(_KERNEL_N - 1, -1.0)], np.full(_KERNEL_N, 2.5)])
_KERNEL_START = np.linspace(0.0, 1.0, _KERNEL_N)


def speed_kernel(steps: int = 400) -> float:
    """A fixed computation of the same kind as critvar's flow (banded
    solves and small-array numpy calls driven from a Python loop) that
    runs no critvar code.  The machine is shared and its speed drifts by
    10-15% over tens of seconds; timed between the scenario runs, this
    kernel tracks that drift, and `wall_rel` divides it out."""
    x, acc = _KERNEL_START, 0.0
    for i in range(steps):
        y = solveh_banded(_KERNEL_BANDS, x)
        x = 0.5 * np.tanh(np.abs(y) ** 1.5) + _KERNEL_START
        acc += float(np.dot(x, y)) / (i + 1.0)
    return acc


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs the scenario again and again, keeping each run's output for
    the checks and its wall time for the metrics."""

    def __init__(self, critvar, scenario, work: Path):
        self.harness = critvar.harness
        self.errors = critvar.errors
        self.scenario = scenario
        self.work = work
        self.outputs: list[tuple] = []     # (out dir or None if raised, min u*v)
        self.kernel_walls: list[float] = []
        self.setup_walls: list[float] = []

    def warm_up(self):
        """One untimed run of a shrunken copy: lazy imports and first-call
        set-up inside numpy and scipy happen here, not in a timed run."""
        s = self.scenario
        small = dataclasses.replace(
            s, cells=max(64, s.cells // 8),
            flow=dataclasses.replace(s.flow, max_iters=min(20, s.flow.max_iters)))
        try:
            self.harness.write_report(self.harness.run(small, jobs=1),
                                      self.work / "warm-up")
        except self.errors.CritvarError:
            pass

    def once(self) -> float | None:
        out = self.work / f"run{len(self.outputs)}"
        start = time.perf_counter()
        try:
            report = self.harness.run(self.scenario, jobs=1)
            self.harness.write_report(report, out)
        except self.errors.CritvarError as exc:
            print(f"run raised {type(exc).__name__}: {exc}", file=sys.stderr)
            self.outputs.append((None, {}))
            return None
        wall = time.perf_counter() - start
        min_uv = {lam: float((res.pair.u * res.pair.v).min())
                  for lam, res in report.minimize_results.items()}
        self.outputs.append((out, min_uv))
        return wall

    def until(self, seconds: float, kernel: bool = False, setup_ini: Path | None = None):
        """Run the scenario for `seconds` (at least once); its wall times.

        With `kernel`, each run is followed by speed-kernel runs worth
        KERNEL_SHARE of its wall time (at least one).  With `setup_ini`,
        SETUP_REPEATS set-up probes are spread evenly over the runs, so
        that their median does not hang on one moment of the machine's
        drift; the probes' own time is not counted in `seconds`."""
        walls, paused = [], 0.0
        start = time.perf_counter()
        while True:
            wall = self.once()
            if wall is not None:
                walls.append(wall)
                if kernel:
                    self._time_kernel(KERNEL_SHARE * wall)
            elapsed = time.perf_counter() - start - paused
            if setup_ini is not None:
                due = SETUP_REPEATS if elapsed >= seconds else \
                    min(SETUP_REPEATS, int(SETUP_REPEATS * elapsed / seconds) + 1)
                probe_start = time.perf_counter()
                while len(self.setup_walls) < due:
                    self.setup_walls.append(_probe(setup_ini)[0])
                paused += time.perf_counter() - probe_start
            if elapsed >= seconds:
                return walls

    def _time_kernel(self, budget: float):
        spent = 0.0
        while not spent or spent < budget:
            start = time.perf_counter()
            speed_kernel()
            self.kernel_walls.append(time.perf_counter() - start)
            spent += self.kernel_walls[-1]

    def last_output(self) -> Path:
        return next(out for out, _ in reversed(self.outputs) if out is not None)

    def check(self, workload: str, reference: dict) -> tuple[int, int]:
        attempted = failed = 0
        for out, min_uv in self.outputs:
            if out is None:
                n = expected_rows(reference)
                attempted, failed = attempted + n, failed + n
                continue
            a, f, messages = check_run(workload, self.scenario, read_tables(out),
                                       reference, min_uv)
            attempted, failed = attempted + a, failed + f
            for msg in messages[:5]:
                print(f"check failed: {out.name}: {msg}", file=sys.stderr)
        return attempted, failed


def tail(walls: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None when there are ten samples or fewer."""
    n = len(walls)
    if n <= 10:
        return None
    return sorted(walls)[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run
# ---------------------------------------------------------------------------


def _per_call_us(agg, label) -> float:
    calls = agg["calls"].get(label, 0)
    return agg["total_s"].get(label, 0.0) / calls * 1e6 if calls else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, events: dict) -> dict:
    m = {}
    for layer in LAYERS:
        labels = [lb for lb in agg["calls"] if layer_of(lb) == layer]
        m[f"{layer}.calls"] = sum(agg["calls"][lb] for lb in labels)
        m[f"{layer}.self_s"] = sum(agg["self_s"][lb] for lb in labels)
    calls, total, child = agg["calls"], agg["total_s"], agg["child_calls"]
    solve = "spectral.TridiagonalOperator.solve"
    m["spectral.solve.calls"] = calls.get(solve, 0)
    m["spectral.solve.us"] = _per_call_us(agg, solve)
    m["spectral.apply.us"] = _per_call_us(agg, "spectral.TridiagonalOperator.apply")
    m["spectral.assemble_operator.calls"] = calls.get("spectral.assemble_operator", 0)
    m["spectral.eig_iterations"] = sum(events["eig_iterations"])
    m["spectral.first_eigenpair.s"] = total.get("spectral.first_eigenpair", 0.0)
    m["energy.weighted_gradient_energy.us"] = _per_call_us(
        agg, "energy.weighted_gradient_energy")
    m["energy.lq_norm.us"] = _per_call_us(agg, "energy.lq_norm")
    flows = events["flows"]
    iterations = sum(it for _, it, _ in flows)
    m["minimizer.iterations"] = iterations
    m["minimizer.s_per_iter"] = _ratio(total.get("minimizer.descend", 0.0), iterations)
    m["minimizer.converged_ratio"] = _ratio(
        sum(status == "converged" for _, _, status in flows), len(flows))
    # each evaluation of the flow's energy makes two gradient-energy calls
    evals = child.get(("minimizer.descend", "energy.weighted_gradient_energy"), 0) / 2
    m["minimizer.energy_evals_per_iter"] = _ratio(evals, iterations)
    flow_ids = {rid for rid, _, _ in flows}
    m["minimizer.pool_wins"] = sum(id(row.result) not in flow_ids
                                   for row in events["sweep_rows"])
    curve_evals = child.get(("asymptotics.energy_curve", "energy.energy"), 0)
    m["asymptotics.energy_evals"] = curve_evals
    m["asymptotics.distinct_eps_ratio"] = _ratio(len(events["eps"]), curve_evals)
    m["harness.emit_s"] = total.get("harness.write_report", 0.0)
    m["trace.spans"] = sum(calls.values())
    return m


def _column(rows, name):
    return [float(r[name]) for r in rows]


def quality_metrics(tables: dict) -> dict:
    """Known-off diagnostics, recorded as numbers and gated by nothing."""
    m = {}
    m["minimizer.el_residual_max"] = max(
        _column(tables.get("minimize", []), "el_residual"), default=0.0)
    m["nonexistence.pohozaev_residual_max"] = max(
        map(abs, _column(tables.get("pohozaev", []), "residual")), default=0.0)
    rows = [r for r in tables.get("asymptotics", [])
            if r["predicted_coeff"] not in ("nan", "")]
    lam = _column(rows, "lambda")
    fitted = _column(rows, "fitted_coeff")
    predicted = _column(rows, "predicted_coeff")
    m["asymptotics.coeff_offset_max"] = max(
        (abs(f - p) for f, p in zip(fitted, predicted)), default=0.0)
    # fitted over predicted slope of the leading coefficient in lambda
    slope_ratio = 0.0
    if len(set(lam)) >= 2:
        fit_slope = statistics.linear_regression(lam, fitted).slope
        pred_slope = statistics.linear_regression(lam, predicted).slope
        slope_ratio = _ratio(fit_slope, pred_slope)
    m["asymptotics.slope_ratio"] = slope_ratio
    return m


def traced_phase(loop: Loop, deadline: float, name: str):
    tracer = Tracer()
    events = {"flows": [], "sweep_rows": [], "eig_iterations": [], "eps": set()}

    def on_descend(args, kwargs, res):
        events["flows"].append((id(res), res.iterations, res.status))

    def on_sweep(args, kwargs, rows):
        events["sweep_rows"].extend(rows)

    def on_eig(args, kwargs, res):
        events["eig_iterations"].append(res.iterations)

    def on_curve(args, kwargs, curve):
        events["eps"].update(eps for eps, _ in curve)

    tracer.observers.update({
        "minimizer.descend": on_descend,
        "minimizer.sweep_minimize": on_sweep,
        "spectral.first_eigenpair": on_eig,
        "asymptotics.energy_curve": on_curve,
    })
    per_run, walls, spans = [], [], []
    tracer.install()
    try:
        while True:
            for bucket in events.values():
                bucket.clear()
            wall = loop.once()
            spans = tracer.take()
            if wall is not None:
                walls.append(wall)
                per_run.append(layer_metrics(aggregate(tracer.labels, spans), events))
            if time.perf_counter() >= deadline:
                break
    finally:
        tracer.uninstall()
    events.clear()
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    write_spans(OUT / "trace" / f"{name}.spans.csv", tracer.labels, spans)
    if not per_run:
        raise BenchError("every traced run raised")
    return walls, {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def bench(args, critvar, work: Path) -> dict:
    ini = scenario_ini(args.workload, args.seed)
    ini_path = work / "scenario.ini"
    ini_path.write_text(ini)
    scenario = critvar.harness.parse_scenario(ini)
    loop = Loop(critvar, scenario, work)
    name = f"{args.workload}-seed{args.seed}"
    print(f"perfbench {args.workload} seed={args.seed} variant={variant_of(args.seed)}"
          f" trace={args.trace}: closed loop, 1 client, jobs=1")

    if args.trace == 0:
        loop.warm_up()
        walls = loop.until(args.seconds, kernel=True, setup_ini=ini_path)
        setups = loop.setup_walls
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = loop.check(args.workload, load_reference(args.workload, args.seed))
        if not walls:
            raise BenchError("every run raised")
        kernel = statistics.median(loop.kernel_walls)
        wall_s = statistics.median(walls)
        metrics = {"setup_s": statistics.median(setups),
                   "wall_rel": wall_s / kernel,
                   "peak_rss_mb": peak_rss_mb}
        t = tail(walls)
        print(f"  setup_s       {metrics['setup_s']:.4f} s    median of {len(setups)} fresh processes, spread over the runs")
        print(f"  wall_s        {wall_s:.4f} s    median of {len(walls)} runs")
        if t is None:
            print(f"  wall_tail_s   n/a         {len(walls)} runs: no percentile has ten runs beyond it")
        else:
            print(f"  wall_tail_s   {t[0]:.4f} s    p{t[1]:.0f} of {len(walls)} runs, 10 beyond it")
        print(f"  wall_rel      {metrics['wall_rel']:.4f}      wall_s / {kernel:.4f} s, median of"
              f" {len(loop.kernel_walls)} speed-kernel runs between them")
        print(f"  peak_rss_mb   {peak_rss_mb:.1f} MB   one process, after {len(walls)} runs")
        print(f"  failed_ratio  {_ratio(failed, attempted):.4g}         {failed} of {attempted} output rows")
        units = END_TO_END_UNITS
    else:
        imports = measure_imports(ini_path)
        loop.warm_up()
        start = time.perf_counter()
        plain = loop.until(args.seconds / 3.0)
        traced_walls, metrics = traced_phase(loop, start + args.seconds, name)
        metrics.update(imports)
        metrics.update(quality_metrics(read_tables(loop.last_output())))
        metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                           / statistics.median(plain))
        attempted, failed = loop.check(args.workload, load_reference(args.workload, args.seed))
        print(f"  {len(plain)} untraced and {len(traced_walls)} traced runs;"
              f" spans of the last traced run in {OUT / 'trace' / (name + '.spans.csv')}")
        for key, value in metrics.items():
            print(f"  {key:40s} {value:.6g}")
        units = {k: _layer_unit(k) for k in metrics}

    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s") or name == "minimizer.s_per_iter":
        return "s"
    if name.endswith(".us"):
        return "us"
    if name.endswith("_ratio") or name.endswith("_per_iter"):
        return "ratio"
    if name.endswith("_max"):
        return "1"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        critvar = import_critvar()
        OUT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
        try:
            result = bench(args, critvar, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
