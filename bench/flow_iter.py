"""Descent-flow cost of two source trees, timed interleaved, written to --out.

    python bench/flow_iter.py --parent <checkout of the parent>/src --out BENCH_9.json

Times `critvar.descend` and `critvar.sweep_minimize` from two source
trees: `--parent` and `--change` (default: this checkout's `src`).  Each
case runs in ROUNDS fresh pairs of worker interpreters, one per tree, that
build and time that case alone, so that no case inherits the heap left by
the cases before it, and so that whatever makes one worker faster than
another (two workers of the same tree have read 9% apart on conc-0) is
averaged over several workers; the script asks the two workers of a pair for one run
at a time, in alternating order, so that drift of a shared machine's speed
falls on both trees alike instead of landing on their ratio.  A run is the
fastest of BEST_OF back-to-back calls, so that a noise burst shorter than
a call's time lands on one discarded call instead of on the run.  With
`--parent` and `--change` naming the same tree (an A/A run) every ratio
should read about x1.00.

Per-iteration cases, on the N = 5 uniform grid at n = 800 and n = 3000
cells, each with a tolerance it cannot reach, so that it stops at the
iteration cap; seconds per iteration is the wall time of the whole call
divided by its iteration count:

- symmetric:   a = b = 1 + r^2 at coupling 9 with the bubble start (u == v,
               one row);
- symmetric-0: the same at coupling 0, where the flow skips the coupling
               products, capped at ITERS_0 iterations: the concentration
               detector's mass test first passes at iteration 150 (n = 800)
               and 160 (n = 3000), where the flow's dilation move starts;
- random:      a = b = 1 + r^2 at coupling 9 with the random start (u0 != v0,
               two rows);
- distinct:    a = 1 + r^2, b = 1 + 2 r^2 at coupling 9 with the bubble start
               (two rows).

Whole-call cases report seconds per call and its iteration count.  One
runs until the concentration detector stops it:

- conc-0: the flow of the `concentration` benchmark workload, a = b = 1 + r^2
  at coupling 0 on the N = 5 geometric grid of 3,000 cells (ratio 1.004),
  grad_tol 1e-12, at most 20000 iterations (one row; 170 iterations with
  the dilation move, 6,130 without).

The to-tolerance cases run on the N = 5 geometric grid of 1,500 cells (ratio
1.004) with the acceptance suite's sweep flow (grad_tol 1e-5, at most 8000
iterations), from the bubble start:

- sweep-9.0446: a = b = 1 + r^2 at coupling 9.0446, the first (cold) flow of
  the `existence-sweep` benchmark workload at seed 11 (one row);
- gap-4:        a = 1 + r^2, b = 1 + r^4 at coupling 4, the two-row point of
  the acceptance suite's energy-gap criterion (two rows);
- gap-8:        a = b = 1 + r^2 at coupling 8, the quadratic-both point of
  the same criterion (one row).

One more to-tolerance case times a whole coupling sweep on the same grid
and flow:

- sweep: `sweep_minimize` over the eight couplings of the `existence-sweep`
  benchmark workload at seed 11 (a = b = 1 + r^2); it reports seconds per
  sweep and the total flow iterations of its eight flows.

The file records the median and quartiles of each case for both trees and
the change/parent ratio: the median over the runs of the change's run
divided by the parent's run next to it in time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

REPO = Path(__file__).resolve().parent.parent
SIZES = (800, 3000)
STARTS = ("symmetric", "symmetric-0", "random", "distinct")
LAMBDA = 9.0
ITERS = 300
ITERS_0 = 140           # symmetric-0: stops before the mass test first passes
ROUNDS = 8              # fresh worker pairs per case
REPEATS = 3             # runs per worker
BEST_OF = 3             # calls per run; the run reports the fastest
SWEEP_LAMS = (9.0446, 11.238094, 13.29651, 15.415663, 17.504842, 19.800375,
              21.7696, 23.922903)


# every case, and whether it is timed per iteration (else per call)
CASES = {**{f"n{n}/{start}": True for n in SIZES for start in STARTS},
         "conc-0": False, "sweep-9.0446": False, "gap-4": False, "gap-8": False,
         "sweep": False}


def _case(critvar, name):
    """run() for the named case, which returns a result with the fields
    iterations, status, el_residual and q_lambda."""

    def descend(*args):
        return lambda: critvar.descend(*args)

    def sweep_minimize(*args):
        def run():
            rows = [row.result for row in critvar.sweep_minimize(*args)]
            return SimpleNamespace(
                iterations=sum(r.iterations for r in rows),
                status="/".join(sorted({r.status for r in rows})),
                el_residual=max(r.el_residual for r in rows),
                q_lambda=[r.q_lambda for r in rows])
        return run

    flow = critvar.FlowParams(max_iters=ITERS, grad_tol=1e-14, stall_window=ITERS)
    quad = critvar.WeightProfile.pure_power(1.0, 2.0, 1.0)
    b_same = critvar.WeightProfile.pure_power(1.0, 2.0, 1.0)
    b_other = critvar.WeightProfile.pure_power(1.0, 2.0, 2.0)
    starts = {
        "symmetric": (b_same, LAMBDA, flow),
        "symmetric-0": (b_same, 0.0, critvar.FlowParams(
            max_iters=ITERS_0, grad_tol=1e-14, stall_window=ITERS_0)),
        "random": (b_same, LAMBDA, critvar.FlowParams(
            max_iters=ITERS, grad_tol=1e-14, stall_window=ITERS, init="random")),
        "distinct": (b_other, LAMBDA, flow),
    }
    if name.startswith("n"):
        size, start = name[1:].split("/")
        b, lam, params = starts[start]
        return descend(quad, b, lam, critvar.build_grid(5, 1.0, int(size)), params)
    if name == "conc-0":
        graded3000 = critvar.build_grid(5, 1.0, 3000, grading="geometric", ratio=1.004)
        conc = critvar.FlowParams(max_iters=20000, grad_tol=1e-12, stall_window=20000)
        return descend(quad, b_same, 0.0, graded3000, conc)
    graded = critvar.build_grid(5, 1.0, 1500, grading="geometric", ratio=1.004)
    to_tol = critvar.FlowParams(max_iters=8000, grad_tol=1e-5, stall_window=1500)
    quartic = critvar.WeightProfile.pure_power(1.0, 4.0, 1.0)
    return {
        "sweep-9.0446": descend(quad, b_same, 9.0446, graded, to_tol),
        "gap-4": descend(quad, quartic, 4.0, graded, to_tol),
        "gap-8": descend(quad, b_same, 8.0, graded, to_tol),
        "sweep": sweep_minimize(SWEEP_LAMS, quad, b_same, graded, to_tol),
    }[name]


def worker(src: Path, name: str) -> int:
    """Serve timed runs of one case of one tree: answer each input line
    with one run's JSON."""
    sys.path.insert(0, str(src.resolve()))
    import critvar

    if Path(critvar.__file__).resolve().parent != (src / "critvar").resolve():
        raise SystemExit(f"critvar was not imported from {src}")
    run = _case(critvar, name)
    run()                                        # warm caches and lazy set-up
    print("ready", flush=True)
    for _ in sys.stdin:
        seconds = math.inf
        for _ in range(BEST_OF):
            t0 = time.perf_counter()
            res = run()
            seconds = min(seconds, time.perf_counter() - t0)
        print(json.dumps({"seconds": seconds, "iterations": res.iterations,
                          "status": res.status, "el_residual": res.el_residual,
                          "q_lambda": res.q_lambda}), flush=True)
    return 0


def _values(samples, per_iteration: bool) -> list:
    return [s["seconds"] / s["iterations"] if per_iteration else s["seconds"]
            for s in samples]


def _summary(samples, per_iteration: bool) -> dict:
    key = "s_per_iter" if per_iteration else "seconds"
    xs = _values(samples, per_iteration)
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    last = samples[-1]
    out = {f"{key}_median": med, f"{key}_q1": q1, f"{key}_q3": q3,
           "iterations": last["iterations"], "status": last["status"],
           "runs": len(xs)}
    if not per_iteration:
        out.update(el_residual=last["el_residual"], q_lambda=last["q_lambda"])
    return out


def _interleaved(trees: dict, name: str, flip: bool) -> dict:
    """{label: [run JSON] * REPEATS} of one case, from a fresh worker per
    tree, the trees' runs interleaved; flip starts with the second tree."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    procs = {label: subprocess.Popen(
        [sys.executable, __file__, "--worker", str(src), "--case", name],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        for label, src in trees.items()}
    try:
        for p in procs.values():
            if p.stdout.readline().strip() != "ready":
                raise SystemExit(f"a worker failed to set up case {name}")
        samples = {label: [] for label in procs}
        order = list(procs)[::-1] if flip else list(procs)
        for rep in range(REPEATS):
            for label in (order if rep % 2 == 0 else order[::-1]):
                p = procs[label]
                p.stdin.write("run\n")
                p.stdin.flush()
                samples[label].append(json.loads(p.stdout.readline()))
    finally:
        for p in procs.values():
            p.stdin.close()
            p.wait(timeout=60)
    return samples


def measure(parent: Path, change: Path) -> tuple[dict, dict]:
    """({label: {case: summary}}, {case: change/parent}), each case in ROUNDS
    fresh worker pairs.  The ratio is the median over the runs of change's
    run over the parent's run next to it in time, which cancels drift slower
    than one run pair."""
    trees = {"parent": parent, "change": change}
    runs, ratios = {label: {} for label in trees}, {}
    for name, per_iteration in CASES.items():
        samples = {label: [] for label in trees}
        for rnd in range(ROUNDS):
            for label, xs in _interleaved(trees, name, rnd % 2 == 1).items():
                samples[label] += xs
        for label, xs in samples.items():
            runs[label][name] = _summary(xs, per_iteration)
        ratios[name] = statistics.median(
            c / p for p, c in zip(_values(samples["parent"], per_iteration),
                                  _values(samples["change"], per_iteration)))
    return runs, ratios


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, help="source tree of the parent")
    p.add_argument("--change", type=Path, default=REPO / "src",
                   help="source tree of the change (default: this checkout's src)")
    p.add_argument("--out", type=Path, help="JSON file to write")
    p.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is not None:
        return worker(args.worker, args.case)
    if args.parent is None or args.out is None:
        p.error("--parent and --out are required")

    import numpy
    import scipy

    runs, ratios = measure(args.parent, args.change)
    doc = {
        "what": ("descend cost of the parent and the change, timed interleaved "
                 f"in {ROUNDS} fresh pairs of worker interpreters per case. "
                 "Per-iteration cases (n<cells>/<start>): "
                 f"seconds per iteration, N = 5 uniform grid, coupling {LAMBDA} "
                 f"(0 for symmetric-0), iteration cap {ITERS} ({ITERS_0} for "
                 "symmetric-0). conc-0: seconds per call of the concentration "
                 "workload's flow (coupling 0, 3000 geometric cells), stopped "
                 "by the concentration detector. "
                 "To-tolerance cases (sweep-9.0446, gap-4, gap-8): "
                 "seconds per converged call, N = 5 geometric grid of 1500 cells, "
                 "grad_tol 1e-5. sweep: seconds per sweep_minimize call over the "
                 "eight existence-sweep seed-11 couplings on the same grid, with "
                 "the total iterations of its flows. "
                 f"Median and quartiles of {ROUNDS * REPEATS} runs each, "
                 f"{REPEATS} per worker, each the fastest of {BEST_OF} calls. "
                 "change_over_parent: the median over "
                 "the runs of the change's run divided by the parent's run "
                 "next to it in time."),
        "machine": {"python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "cpus": os.cpu_count(), "machine": platform.machine()},
        "runs": runs,
        "change_over_parent": ratios,
    }
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
