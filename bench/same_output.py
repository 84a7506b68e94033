"""Check that two source trees write the same CSVs on every benchmark input.

    python bench/same_output.py --parent <checkout of the parent>/src [--change <src>]

Runs every variant of every workload that `perfbench/workloads.py`
generates (`parse_scenario` -> `run` -> `write_report`, as the benchmark
does) on two source trees: `--parent` and `--change` (default: this
checkout's `src`).  Each tree runs in its own worker interpreter, both at
once.  Every CSV is then compared byte for byte below its timestamp line,
the one line a run may change; a run that raises is compared by its error
type and message.  For each table that differs, the first differing cells
are printed, and at the end the largest relative difference of each
(workload, table, column) that differs anywhere, and the total of
`minimize.csv`'s `iterations` column per workload on each tree.  Last
it prints the size of each tree's `critvar/*.py`: its line total (what
`wc -l` reads) and its code lines, the lines that are neither blank nor
a comment nor inside a docstring (found with `ast`), in total and per
module.  Exits 0 when every table is identical and 1 otherwise.

Each differing cell also gets a verdict from the benchmark's snapshot
check (`perfbench/checks.py`), with the parent's table as the reference:
`inside` or `OUTSIDE` the check's tolerance for its column,
`EXACT-DIFFERS` for a column the check compares as text (`status`,
`case_id`, `verdict`, `family_points`, ...), `unchecked` for a column it
skips, and `not comparable` for a change of shape or a file only one tree
writes.  The summary counts each column's verdicts, and a closing line
counts the columns with any verdict other than `inside` or `unchecked`.

Nothing under `perfbench/` is written: `workloads.py` and `checks.py` are
read with `runpy`, which leaves no bytecode cache behind.
"""

from __future__ import annotations

import argparse
import ast
import csv
import math
import os
import runpy
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = REPO / "perfbench" / "workloads.py"
CHECKS = REPO / "perfbench" / "checks.py"
SHOWN_CELLS = 5          # differing cells printed per table
NOT_COMPARABLE = "not comparable"   # verdict of a cell the snapshot check cannot judge


def worker(src: Path, out: Path) -> int:
    """Write the CSVs of every (workload, variant) under out/<workload>/<variant>."""
    sys.path.insert(0, str(src.resolve()))
    import critvar
    from critvar.errors import CritvarError

    if Path(critvar.__file__).resolve().parent != (src / "critvar").resolve():
        raise SystemExit(f"critvar was not imported from {src}")
    gen = runpy.run_path(str(WORKLOADS))
    for workload in gen["WORKLOADS"]:
        for variant in range(gen["VARIANTS"]):
            target = out / workload / f"{variant:02d}"
            try:
                scenario = critvar.parse_scenario(gen["scenario_ini"](workload, variant))
                critvar.write_report(critvar.run(scenario), target)
            except CritvarError as exc:
                target.mkdir(parents=True, exist_ok=True)
                (target / "error.txt").write_text(f"{type(exc).__name__}: {exc}\n")
    return 0


def _body(path: Path) -> str:
    text = path.read_text()
    if text.startswith("# generated "):
        text = text.split("\n", 1)[1]
    return text


def _relative(vp: str, vc: str) -> float:
    """|vc - vp| / max(|vp|, |vc|) of two differing cells; inf unless both
    are finite numbers."""
    try:
        fp, fc = float(vp), float(vc)
    except ValueError:
        return math.inf
    rel = abs(fc - fp) / max(abs(fp), abs(fc))
    return rel if math.isfinite(rel) else math.inf


def _differing_cells(parent: str, change: str, verdict
                     ) -> list[tuple[str, float, str, str]]:
    """(column, relative difference, verdict(column, parent value, change
    value), printable line) of each differing cell of two CSV texts."""
    rows_p = list(csv.reader(parent.splitlines()))
    rows_c = list(csv.reader(change.splitlines()))
    if len(rows_p) != len(rows_c) or rows_p[:1] != rows_c[:1]:
        return [("(shape)", math.inf, NOT_COMPARABLE,
                 f"  header or row count: {rows_p[:1]} x {len(rows_p)} "
                 f"vs {rows_c[:1]} x {len(rows_c)}")]
    header, cells = rows_p[0], []
    for i, (rp, rc) in enumerate(zip(rows_p[1:], rows_c[1:]), start=1):
        for col, vp, vc in zip(header, rp, rc):
            if vp != vc:
                cells.append((col, _relative(vp, vc), verdict(col, vp, vc),
                              f"  row {i} {col}: {vp} -> {vc}"))
        if len(rp) != len(rc):
            cells.append(("(shape)", math.inf, NOT_COMPARABLE,
                          f"  row {i}: {len(rp)} -> {len(rc)} fields"))
    return cells or [("(text)", math.inf, NOT_COMPARABLE, "  (differs outside the cells)")]


def _snapshot_check(checks: dict, workload: str, table: str, parent: str):
    """verdict(column, parent value, change value) of one differing cell of
    `table` by checks.py's snapshot test, with the parent's table as the
    reference: `inside rtol ...`, `OUTSIDE rtol ...`, `EXACT-DIFFERS`,
    `unchecked`, or NOT_COMPARABLE for a table the check does not know."""
    if table not in checks["_COLUMN_RTOL"]:
        return lambda col, vp, vc: NOT_COMPARABLE
    rtols = {**checks["_COLUMN_RTOL"][table],
             **checks["_WORKLOAD_RTOL"].get(workload, {}).get(table, {})}
    scales = checks["_column_scales"](list(csv.DictReader(parent.splitlines())))
    number = checks["_number"]

    def verdict(col, vp, vc):
        rtol = rtols.get(col, checks["_DEFAULT_RTOL"])
        if rtol is None:
            return "unchecked"
        if rtol == checks["EXACT"]:
            return "EXACT-DIFFERS"
        ok = checks["_close"](number(vc), number(vp), rtol, scales.get(col, 0.0))
        return f"{'inside' if ok else 'OUTSIDE'} rtol {rtol:g}"

    return verdict


def _total_iterations(root: Path) -> Counter:
    """{workload: sum of the iterations column over its minimize.csv files}."""
    totals = Counter()
    for path in root.glob("*/*/minimize.csv"):
        rows = csv.DictReader(_body(path).splitlines())
        totals[path.parts[-3]] += sum(int(row["iterations"]) for row in rows)
    return totals


def source_lines(src: Path) -> dict[str, tuple[int, int]]:
    """{module file name: (line total, code lines)} of src/critvar/*.py: the
    total as `wc -l` counts it, and the lines that are neither blank nor a
    comment nor part of a module, class or function docstring."""
    counts = {}
    for path in (src / "critvar").glob("*.py"):
        text = path.read_text()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        counts[path.name] = (text.count("\n"), sum(
            1 for i, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.lstrip().startswith("#") and i not in docs))
    return counts


def compare(parent: Path, change: Path) -> tuple[int, int]:
    """Print every differing table and the per-column summary; return how
    many tables there are and how many of them differ."""
    files_p = {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
    files_c = {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    checks = runpy.run_path(str(CHECKS))
    differ = 0
    largest = {}        # (workload, table, column) -> [relative, tables, cells, verdicts]
    for rel in sorted(files_p ^ files_c):
        differ += 1
        print(f"{rel}: written by the {'parent' if rel in files_p else 'change'} only")
        largest[(rel.parts[0], rel.name, "(file)")] = [
            math.inf, {rel}, 1, Counter([NOT_COMPARABLE])]
    for rel in sorted(files_p & files_c):
        body_p, body_c = _body(parent / rel), _body(change / rel)
        if body_p != body_c:
            differ += 1
            verdict = _snapshot_check(checks, rel.parts[0], rel.stem, body_p)
            cells = _differing_cells(body_p, body_c, verdict)
            print(f"{rel}: {len(cells)} differing cells")
            print("\n".join(line for *_, line in cells[:SHOWN_CELLS]))
            for col, r, v, _ in cells:
                entry = largest.setdefault((rel.parts[0], rel.name, col),
                                           [0.0, set(), 0, Counter()])
                entry[0] = max(entry[0], r)
                entry[1].add(rel)
                entry[2] += 1
                entry[3][v] += 1
    if largest:
        print("largest relative difference per (workload, table, column), and the"
              " verdicts of its cells against the perfbench snapshot check:")
    flagged = 0
    for (workload, table, col), (r, tables, cells, verdicts) in sorted(largest.items()):
        flagged += any(not v.startswith(("inside", "unchecked")) for v in verdicts)
        summary = "; ".join(f"{v} ({n} cells)" for v, n in sorted(verdicts.items()))
        print(f"  {workload} {table} {col}: {r:.3g} ({len(tables)} tables): {summary}")
    if largest:
        print(f"{flagged} differing columns outside the snapshot tolerances, "
              f"compared exactly, or not comparable")
    totals_p, totals_c = _total_iterations(parent), _total_iterations(change)
    if totals_p or totals_c:
        print("minimize.csv iterations per workload, parent -> change:")
    for workload in sorted(totals_p.keys() | totals_c.keys()):
        print(f"  {workload}: {totals_p[workload]:,} -> {totals_c[workload]:,}")
    return len(files_p | files_c), differ


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, help="source tree of the parent")
    p.add_argument("--change", type=Path, default=REPO / "src",
                   help="source tree of the change (default: this checkout's src)")
    p.add_argument("--worker", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is not None:
        return worker(*args.worker)
    if args.parent is None:
        p.error("--parent is required")

    # one BLAS thread, as the benchmark runs
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": args.parent, "change": args.change}
        procs = {label: subprocess.Popen(
            [sys.executable, __file__, "--worker", str(src), str(Path(tmp) / label)],
            env=env) for label, src in trees.items()}
        if [proc.wait() for proc in procs.values()] != [0, 0]:
            print("a worker failed", file=sys.stderr)
            return 2
        tables, differ = compare(Path(tmp) / "parent", Path(tmp) / "change")
    print(f"{tables - differ} of {tables} tables identical below the timestamp line")
    counts_p, counts_c = source_lines(args.parent), source_lines(args.change)
    (lines_p, code_p), (lines_c, code_c) = (
        map(sum, zip(*counts.values())) for counts in (counts_p, counts_c))
    print(f"critvar/*.py lines, parent -> change: {lines_p:,} -> {lines_c:,};"
          f" code lines {code_p:,} -> {code_c:,}")
    print("code lines per module, parent -> change:")
    for name in sorted(counts_p.keys() | counts_c.keys()):
        before, after = (counts.get(name, (0, 0))[1] for counts in (counts_p, counts_c))
        moved = f" ({after - before:+,})" if after != before else ""
        print(f"  {name}: {before:,} -> {after:,}{moved}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
