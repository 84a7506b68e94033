"""End-to-end wall times of two source trees, timed interleaved, written to --out.

    python bench/end_to_end.py --parent <checkout of the parent>/src --out BENCH_8.json

Times, in a fresh interpreter per run, a bare `import critvar`, and for
the seed-11 scenario INI of each benchmark workload
(`perfbench/workloads.py`: existence-sweep, concentration and
diagnostics-n4) its set-up and `critvar all` on it, for two source trees:
`--parent` and `--change` (default: this checkout's `src`).  The set-up
case (setup/<workload>) does what the benchmark's set-up probe
(`perfbench/probe.py`, the `setup_s` metric) does: import
`critvar.harness`, parse the INI and build its grid.  Each run is the
wall time of the whole child process, interpreter start-up included.  The
two trees' runs alternate, and the order flips every round, so that drift
of a shared machine's speed falls on both trees alike instead of landing
on their ratio; one untimed round first warms the file cache.  Every run
must exit 0; the CSVs of `critvar all` go to a temporary directory.

The file records the median and quartiles of each case for both trees and
the change/parent ratio of the medians.  Nothing under `perfbench/` is
written: `workloads.py` is read with `runpy`, which leaves no bytecode
cache behind.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = REPO / "perfbench" / "workloads.py"
SEED = 11
REPEATS = 10
SETUP = ("import sys; from pathlib import Path; "
         "from critvar.harness import parse_scenario; "
         "parse_scenario(Path(sys.argv[1]).read_text()).build_grid()")


def _commands(ini_dir: Path, out_dir: Path) -> dict:
    """{case: argv}; each INI is written to ini_dir once."""
    gen = runpy.run_path(str(WORKLOADS))
    cases = {"import": [sys.executable, "-c", "import critvar"]}
    for workload in gen["WORKLOADS"]:
        ini = ini_dir / f"{workload}.ini"
        ini.write_text(gen["scenario_ini"](workload, SEED))
        cases[f"setup/{workload}"] = [sys.executable, "-c", SETUP, str(ini)]
        cases[f"all/{workload}"] = [sys.executable, "-m", "critvar.cli", "all",
                                    "--config", str(ini), "--out", str(out_dir)]
    return cases


def _time(argv, src: Path) -> float:
    env = {**os.environ, "PYTHONPATH": str(src.resolve()),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    t0 = time.perf_counter()
    done = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} with {src} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return seconds


def measure(trees: dict, repeats: int) -> dict:
    """{label: {case: [seconds] * repeats}}, the trees' runs interleaved."""
    with tempfile.TemporaryDirectory() as tmp:
        cases = _commands(Path(tmp), Path(tmp) / "out")
        samples = {label: {name: [] for name in cases} for label in trees}
        order = list(trees)
        for name, argv in cases.items():         # untimed: warm the file cache
            for src in trees.values():
                _time(argv, src)
        for rep in range(repeats):
            for name, argv in cases.items():
                for label in (order if rep % 2 == 0 else order[::-1]):
                    samples[label][name].append(_time(argv, trees[label]))
    return samples


def _summary(xs) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"seconds_median": med, "seconds_q1": q1, "seconds_q3": q3,
            "runs": len(xs)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="source tree of the parent")
    p.add_argument("--change", type=Path, default=REPO / "src",
                   help="source tree of the change (default: this checkout's src)")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    p.add_argument("--repeats", type=int, default=REPEATS,
                   help=f"fresh processes per tree and case (default {REPEATS})")
    args = p.parse_args(argv)
    for src in (args.parent, args.change):
        if not (src / "critvar" / "__init__.py").is_file():
            p.error(f"{src} holds no critvar package")

    import numpy
    import scipy

    samples = measure({"parent": args.parent, "change": args.change}, args.repeats)
    runs = {label: {name: _summary(xs) for name, xs in cases.items()}
            for label, cases in samples.items()}
    doc = {
        "what": ("wall time of a fresh interpreter per run, parent and change "
                 "interleaved: `import critvar` (import), and for the "
                 f"seed-{SEED} scenario INI of each benchmark workload the "
                 "set-up probe's import critvar.harness, parse and build_grid "
                 "(setup/<workload>) and `critvar all` (all/<workload>), "
                 "interpreter start-up included. Median and "
                 f"quartiles of {args.repeats} runs each."),
        "machine": {"python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "cpus": os.cpu_count(), "machine": platform.machine()},
        "runs": runs,
        "change_over_parent": {
            name: r["seconds_median"] / runs["parent"][name]["seconds_median"]
            for name, r in runs["change"].items()},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for label, cases in runs.items():
        for name, r in cases.items():
            print(f"{label:7s} {name:28s} {r['seconds_median']:7.3f} s"
                  f"  (IQR {r['seconds_q1']:.3f}-{r['seconds_q3']:.3f},"
                  f" {r['runs']} runs)")
    for name, ratio in doc["change_over_parent"].items():
        print(f"change/parent {name:28s} x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
