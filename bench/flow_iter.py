"""Descent-flow cost of two source trees, timed interleaved, written to --out.

    python bench/flow_iter.py --parent <checkout of the parent>/src --out BENCH_5.json

Times `critvar.descend` from two source trees: `--parent` and `--change`
(default: this checkout's `src`).  Each tree is imported by its own worker
interpreter; the script asks the two workers for one run at a time, in
alternating order, so that drift of a shared machine's speed falls on both
trees alike instead of landing on their ratio.

Per-iteration cases, on the N = 5 uniform grid at n = 800 and n = 3000
cells, each with a tolerance it cannot reach, so that it stops at the
iteration cap; seconds per iteration is the wall time of the whole call
divided by its iteration count:

- symmetric:   a = b = 1 + r^2 at coupling 9 with the bubble start (u == v,
               one row);
- symmetric-0: the same at coupling 0, where the flow skips the coupling
               products;
- random:      a = b = 1 + r^2 at coupling 9 with the random start (u0 != v0,
               two rows);
- distinct:    a = 1 + r^2, b = 1 + 2 r^2 at coupling 9 with the bubble start
               (two rows).

One more per-iteration case runs until the concentration detector stops it:

- conc-0: the flow of the `concentration` benchmark workload, a = b = 1 + r^2
  at coupling 0 on the N = 5 geometric grid of 3,000 cells (ratio 1.004),
  grad_tol 1e-12, at most 20000 iterations (one row, about 6,100
  iterations).

To-tolerance cases, on the N = 5 geometric grid of 1,500 cells (ratio
1.004) with the acceptance suite's sweep flow (grad_tol 1e-5, at most 8000
iterations), from the bubble start; each reports seconds per converged call
and its iteration count:

- sweep-9.0446: a = b = 1 + r^2 at coupling 9.0446, the first (cold) flow of
  the `existence-sweep` benchmark workload at seed 11 (one row);
- gap-4:        a = 1 + r^2, b = 1 + r^4 at coupling 4, the two-row point of
  the acceptance suite's energy-gap criterion (two rows);
- gap-8:        a = b = 1 + r^2 at coupling 8, the quadratic-both point of
  the same criterion (one row).

The file records the median and quartiles of each case for both trees and
the change/parent ratio of the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIZES = (800, 3000)
STARTS = ("symmetric", "symmetric-0", "random", "distinct")
LAMBDA = 9.0
ITERS = 300
REPEATS = 15


def _cases(critvar):
    """{name: (descend arguments, per_iteration)}."""
    flow = critvar.FlowParams(max_iters=ITERS, grad_tol=1e-14, stall_window=ITERS)
    quad = critvar.WeightProfile.pure_power(1.0, 2.0, 1.0)
    b_same = critvar.WeightProfile.pure_power(1.0, 2.0, 1.0)
    b_other = critvar.WeightProfile.pure_power(1.0, 2.0, 2.0)
    starts = {
        "symmetric": (b_same, LAMBDA, flow),
        "symmetric-0": (b_same, 0.0, flow),
        "random": (b_same, LAMBDA, critvar.FlowParams(
            max_iters=ITERS, grad_tol=1e-14, stall_window=ITERS, init="random")),
        "distinct": (b_other, LAMBDA, flow),
    }
    cases = {}
    for n in SIZES:
        grid = critvar.build_grid(5, 1.0, n)
        for start in STARTS:
            b, lam, params = starts[start]
            cases[f"n{n}/{start}"] = ((quad, b, lam, grid, params), True)
    graded3000 = critvar.build_grid(5, 1.0, 3000, grading="geometric", ratio=1.004)
    conc = critvar.FlowParams(max_iters=20000, grad_tol=1e-12, stall_window=20000)
    cases["conc-0"] = ((quad, b_same, 0.0, graded3000, conc), True)
    graded = critvar.build_grid(5, 1.0, 1500, grading="geometric", ratio=1.004)
    sweep = critvar.FlowParams(max_iters=8000, grad_tol=1e-5, stall_window=1500)
    quartic = critvar.WeightProfile.pure_power(1.0, 4.0, 1.0)
    cases["sweep-9.0446"] = ((quad, b_same, 9.0446, graded, sweep), False)
    cases["gap-4"] = ((quad, quartic, 4.0, graded, sweep), False)
    cases["gap-8"] = ((quad, b_same, 8.0, graded, sweep), False)
    return cases


def worker(src: Path) -> int:
    """Serve timed runs of one tree: read a case name per line, answer JSON."""
    sys.path.insert(0, str(src.resolve()))
    import critvar

    if Path(critvar.__file__).resolve().parent != (src / "critvar").resolve():
        raise SystemExit(f"critvar was not imported from {src}")
    cases = _cases(critvar)
    for args, _ in cases.values():               # warm caches and lazy set-up
        critvar.descend(*args)
    print(json.dumps({name: kind for name, (_, kind) in cases.items()}), flush=True)
    for line in sys.stdin:
        args, _ = cases[line.strip()]
        t0 = time.perf_counter()
        res = critvar.descend(*args)
        seconds = time.perf_counter() - t0
        print(json.dumps({"seconds": seconds, "iterations": res.iterations,
                          "status": res.status, "el_residual": res.el_residual,
                          "q_lambda": res.q_lambda}), flush=True)
    return 0


def _summary(samples, per_iteration: bool) -> dict:
    key = "s_per_iter" if per_iteration else "seconds"
    xs = [s["seconds"] / s["iterations"] if per_iteration else s["seconds"]
          for s in samples]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    last = samples[-1]
    out = {f"{key}_median": med, f"{key}_q1": q1, f"{key}_q3": q3,
           "iterations": last["iterations"], "status": last["status"],
           "runs": len(xs)}
    if not per_iteration:
        out.update(el_residual=last["el_residual"], q_lambda=last["q_lambda"])
    return out


def measure(trees: dict) -> dict:
    """{label: {case: summary}}, with the trees' runs interleaved."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    procs = {label: subprocess.Popen(
        [sys.executable, __file__, "--worker", str(src)], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True, env=env) for label, src in trees.items()}
    try:
        kinds = [json.loads(p.stdout.readline()) for p in procs.values()]
        per_iteration = kinds[0]
        if any(k != per_iteration for k in kinds):
            raise SystemExit("the two trees disagree on the case list")
        cases = list(per_iteration)
        samples = {label: {name: [] for name in cases} for label in procs}
        order = list(procs)
        for rep in range(REPEATS):
            for name in cases:
                for label in (order if rep % 2 == 0 else order[::-1]):
                    p = procs[label]
                    p.stdin.write(name + "\n")
                    p.stdin.flush()
                    samples[label][name].append(json.loads(p.stdout.readline()))
    finally:
        for p in procs.values():
            p.stdin.close()
            p.wait(timeout=60)
    return {label: {name: _summary(xs, per_iteration[name]) for name, xs in runs.items()}
            for label, runs in samples.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, help="source tree of the parent")
    p.add_argument("--change", type=Path, default=REPO / "src",
                   help="source tree of the change (default: this checkout's src)")
    p.add_argument("--out", type=Path, help="JSON file to write")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is not None:
        return worker(args.worker)
    if args.parent is None or args.out is None:
        p.error("--parent and --out are required")

    import numpy
    import scipy

    runs = measure({"parent": args.parent, "change": args.change})
    doc = {
        "what": ("descend cost of the parent and the change, timed interleaved "
                 "in two worker interpreters. Per-iteration cases (n<cells>/<start>): "
                 f"seconds per iteration, N = 5 uniform grid, coupling {LAMBDA} "
                 f"(0 for symmetric-0), iteration cap {ITERS}. conc-0: seconds per "
                 "iteration of the concentration workload's flow (coupling 0, "
                 "3000 geometric cells), stopped by the concentration detector. "
                 "To-tolerance cases (sweep-9.0446, gap-4, gap-8): "
                 "seconds per converged call, N = 5 geometric grid of 1500 cells, "
                 f"grad_tol 1e-5. Median and quartiles of {REPEATS} runs each."),
        "machine": {"python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "cpus": os.cpu_count(), "machine": platform.machine()},
        "runs": runs,
        "change_over_parent": {},
    }
    for name, r in runs["change"].items():
        key = next(k for k in r if k.endswith("_median"))
        doc["change_over_parent"][name] = r[key] / runs["parent"][name][key]
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for label, cases in runs.items():
        for name, r in cases.items():
            key = next(k for k in r if k.endswith("_median"))
            unit = "us/iter" if key.startswith("s_per_iter") else "us/call"
            q = key[:-len("median")]
            print(f"{label:7s} {name:16s} {1e6 * r[key]:10.1f} {unit}"
                  f"  (IQR {1e6 * r[q + 'q1']:.1f}-{1e6 * r[q + 'q3']:.1f},"
                  f" {r['runs']} runs of {r['iterations']} iterations)")
    for name, ratio in doc["change_over_parent"].items():
        print(f"change/parent {name:16s} x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
