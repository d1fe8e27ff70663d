"""Command-line driver for the static analyzer (``make lint-ifc``)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from analysis.findings import RULES
from analysis.framework import analyze, load_project
from analysis.locks import build_lock_graph


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analyze.py",
        description=(
            "Static information-flow analyzer: IFC lint rules, taint "
            "source→sink summaries and the lock-order race detector."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="directory findings report paths relative to (default: src "
        "when analyzing the default tree, else the first path)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--no-suppress",
        action="store_true",
        help="ignore '# ifc: allow[...]' suppression comments",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit findings as JSON lines instead of human-readable text",
    )
    parser.add_argument(
        "--lock-graph",
        action="store_true",
        help="print the static lock-acquisition graph (GraphViz dot) and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(_parser().parse_args(argv))
    except BrokenPipeError:
        # stdout went away mid-print (e.g. piped into head); exit quietly.
        sys.stderr.close()
        return 0


def _run(args: argparse.Namespace) -> int:

    if args.list_rules:
        for rule, info in sorted(RULES.items()):
            print(f"{rule} [{info.severity}]")
            print(f"    {info.summary}")
            print(f"    fix: {info.fix_hint}")
        return 0

    paths: List[str] = list(args.paths) or ["src/repro"]
    root = args.root
    if root is None and paths == ["src/repro"] and Path("src/repro").is_dir():
        root = "src"

    if args.lock_graph:
        project = load_project(paths, root=root)
        print(build_lock_graph(project).to_dot())
        return 0

    rules = None
    if args.rules:
        rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]
        unknown = [rule for rule in rules if rule not in RULES]
        if unknown:
            print(f"unknown rule ids: {', '.join(unknown)}", file=sys.stderr)
            return 2

    findings = analyze(
        paths,
        root=root,
        rules=rules,
        respect_suppressions=not args.no_suppress,
    )
    if args.as_json:
        for finding in findings:
            print(json.dumps(finding.to_dict(), sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        print(
            f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
            f"across {len(paths)} path{'s' if len(paths) != 1 else ''}"
        )
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
