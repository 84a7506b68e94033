"""Write the reference snapshot the benchmark's output checks compare to.

    python3 perfbench/make_reference.py [workload ...]

For every input variant of each workload (all of them by default), runs
the scenario once through the public harness and stores the CSV rows it
writes, as text, in `perfbench/reference/<workload>.json`.  Run it from
the root of a checkout; take a new snapshot only when a change to the
program is meant to change its output, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench
from checks import read_tables
from workloads import VARIANTS, WORKLOADS, scenario_ini


def snapshot(workload: str, critvar) -> dict:
    """{variant: {table: {"columns": [...], "rows": [[CSV text, ...], ...]}}}"""
    variants = {}
    for variant in range(VARIANTS):
        scenario = critvar.harness.parse_scenario(scenario_ini(workload, variant))
        out = Path(tempfile.mkdtemp(prefix="reference-", dir=bench.OUT))
        try:
            report = critvar.harness.run(scenario, jobs=1)
            critvar.harness.write_report(report, out)
            variants[str(variant)] = {
                table: {"columns": list(rows[0]), "rows": [list(r.values()) for r in rows]}
                for table, rows in read_tables(out).items()}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        print(f"{workload} variant {variant}", file=sys.stderr)
    return variants


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    critvar = bench.import_critvar()
    bench.OUT.mkdir(exist_ok=True)
    bench.REFERENCE.mkdir(exist_ok=True)
    for workload in names:
        variants = snapshot(workload, critvar)
        body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                           for k, v in variants.items())
        path = bench.REFERENCE / f"{workload}.json"
        path.write_text(f'{{"workload": {json.dumps(workload)}, "variants": {{\n{body}\n}}}}\n')
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
