"""Command-line entry point.

    critvar <subcommand> --config <file> [--out <dir>] [--plots]

The subcommand selects which analyses run (overriding the config's
`analyses` list); `all` runs every analysis.  Exit status is 0 on
success and nonzero when any invariant assertion failed or the config
is invalid.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import CritvarError
from .harness import ANALYSES, parse_scenario, run, write_report

_SUBCOMMANDS = ANALYSES + ("all",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critvar",
        description="weighted critical-exponent variational laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} analysis"
                           if name != "all" else "run every analysis")
        p.add_argument("--config", required=True, type=Path,
                       help="scenario config file")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides the config)")
        p.add_argument("--plots", action="store_true",
                       help="also emit SVG plots")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.config.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(text)
        if args.command != "all":
            scenario = replace(scenario, analyses=(args.command,))
        if args.out is not None:
            scenario = replace(scenario, out_dir=str(args.out))
        if args.plots:
            scenario = replace(scenario, plots=True)
        report = run(scenario)
        written = write_report(report)
    except CritvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    for failure in report.failures:
        print(f"invariant failure: {failure}", file=sys.stderr)
    return 1 if report.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
