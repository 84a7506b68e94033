"""Seconds per iteration of the descent flow, written to the JSON file --out.

    python bench/flow_iter.py --label parent --src <checkout of the parent>/src --out BENCH_2.json
    python bench/flow_iter.py --label change --out BENCH_2.json

Times `critvar.descend` on the N = 5 uniform grid at n = 800 and n = 3000
cells for three starts that cover both shapes of the flow state:

- symmetric: a = b = 1 + r^2 with the bubble start (u == v, one row);
- random:    a = b = 1 + r^2 with the random start (u0 != v0, two rows);
- distinct:  a = 1 + r^2, b = 1 + 2 r^2 with the bubble start (two rows).

Each flow runs at coupling 9 with a tolerance it cannot reach, so it stops at
the iteration cap; seconds per iteration is the wall time of the whole call
divided by its iteration count (the one-off set-up is amortized over it).
Runs of the six cases are interleaved so that drift of a shared machine
falls on all of them alike.  The script records the median and quartiles of
each case under `--label`, keeps the other labels already in the output
file, and writes the change/parent ratio of medians when both are present.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIZES = (800, 3000)
STARTS = ("symmetric", "random", "distinct")
LAMBDA = 9.0
ITERS = 300
REPEATS = 15


def _cases(critvar):
    flow = critvar.FlowParams(max_iters=ITERS, grad_tol=1e-14, stall_window=ITERS)
    a = critvar.WeightProfile.pure_power(1.0, 2.0, 1.0)
    b_same = critvar.WeightProfile.pure_power(1.0, 2.0, 1.0)
    b_other = critvar.WeightProfile.pure_power(1.0, 2.0, 2.0)
    starts = {
        "symmetric": (b_same, flow),
        "random": (b_same, critvar.FlowParams(max_iters=ITERS, grad_tol=1e-14,
                                              stall_window=ITERS, init="random")),
        "distinct": (b_other, flow),
    }
    for n in SIZES:
        grid = critvar.build_grid(5, 1.0, n)
        for start in STARTS:
            b, params = starts[start]
            yield f"n{n}/{start}", (a, b, LAMBDA, grid, params)


def measure(critvar) -> dict:
    cases = dict(_cases(critvar))
    samples = {name: [] for name in cases}
    counts = {}
    for name, args in cases.items():              # warm caches and lazy set-up
        critvar.descend(*args)
    for _ in range(REPEATS):
        for name, args in cases.items():
            t0 = time.perf_counter()
            res = critvar.descend(*args)
            samples[name].append((time.perf_counter() - t0) / res.iterations)
            counts[name] = res.iterations
    out = {}
    for name, xs in samples.items():
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        out[name] = {"s_per_iter_median": med, "s_per_iter_q1": q1,
                     "s_per_iter_q3": q3, "iterations": counts[name],
                     "runs": len(xs)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="e.g. parent or change")
    p.add_argument("--src", type=Path, default=REPO / "src",
                   help="source tree whose critvar is timed")
    p.add_argument("--out", type=Path, required=True,
                   help="JSON file to update (labels already in it are kept)")
    args = p.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    import critvar
    import numpy
    import scipy

    if Path(critvar.__file__).resolve().parent != (args.src / "critvar").resolve():
        p.error(f"critvar was not imported from {args.src}")

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc["what"] = ("seconds per descend iteration (whole call / iterations), "
                   f"N = 5 uniform grid, coupling {LAMBDA}, iteration cap "
                   f"{ITERS}; median and quartiles of {REPEATS} runs")
    doc["machine"] = {"python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__,
                      "cpus": os.cpu_count(), "machine": platform.machine()}
    doc.setdefault("runs", {})[args.label] = measure(critvar)
    runs = doc["runs"]
    if "parent" in runs and "change" in runs:
        doc["change_over_parent"] = {
            name: runs["change"][name]["s_per_iter_median"]
            / runs["parent"][name]["s_per_iter_median"]
            for name in runs["change"] if name in runs["parent"]}
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, r in runs[args.label].items():
        print(f"{args.label:8s} {name:16s} {1e6 * r['s_per_iter_median']:8.1f} us/iter"
              f"  (IQR {1e6 * r['s_per_iter_q1']:.1f}-{1e6 * r['s_per_iter_q3']:.1f},"
              f" {r['runs']} runs of {r['iterations']} iterations)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
