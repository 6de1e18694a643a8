"""``python -m repro.analysis`` — the static-analysis CLI.

Typical invocations::

    python -m repro.analysis src/repro                  # gate (exit 1 on findings)
    python -m repro.analysis src/repro --format json    # machine-readable
    python -m repro.analysis --list-rules
"""

from __future__ import annotations

import argparse

from repro.analysis.report import report
from repro.analysis.runner import analyze_paths, default_checkers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Self-hosted static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format on stdout",
    )
    parser.add_argument(
        "--json-output", metavar="PATH", default=None,
        help="also write the JSON report to PATH (the CI artifact)",
    )
    parser.add_argument(
        "--rules", metavar="RULE[,RULE...]", default=None,
        help="restrict reporting to the named rule ids",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every checker and its rule ids, then exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    checkers = default_checkers()
    if args.list_rules:
        for checker in checkers:
            print(f"{checker.name}:")
            for rule in checker.rules:
                print(f"  {rule}")
        print("framework:\n  parse-error")
        return 0

    rules = None
    if args.rules is not None:
        rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]

    result = analyze_paths(args.paths, checkers=checkers, rules=rules)
    return report(result, format=args.format, json_output=args.json_output)


if __name__ == "__main__":
    raise SystemExit(main())
