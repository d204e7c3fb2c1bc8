"""CLI: ``python -m repro.analysis [paths...]``.

Human-readable report on stdout (``--format json`` prints the findings
document instead); ``--output FILE`` additionally writes that JSON
document to a file.  One code path: the CLI calls the same
:func:`~repro.analysis.runner.analyze_paths` the library and the tests
do, cold, every time (about 2 s on this tree).

Exit status: 0 when there are no findings; 1 when there are; 2 for
usage problems (a path that does not exist).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .registry import iter_project_rules, iter_rules
from .runner import analyze_paths

DEFAULT_PATHS = ("src", "tests", "benchmarks")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or trees to analyze (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root", type=Path, default=Path.cwd(),
        help="repo root paths are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="stdout format (json: the full findings document)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="also write the JSON findings document to this file",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every registered rule and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.rule_id}  [module ]  {rule.summary}")
        for prule in iter_project_rules():
            print(f"{prule.rule_id}  [project]  {prule.summary}")
        return 0

    try:
        findings = analyze_paths(args.paths, args.root)
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    doc = {
        "version": 1,
        "findings": [f.to_json() for f in findings],
        # Every finding is an error; "warnings" stays so the document
        # keeps the shape its consumers were written against.
        "summary": {"errors": len(findings), "warnings": 0},
    }
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(doc, indent=2) + "\n")
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for finding in findings:
            print(finding.format())
        print(f"{len(findings)} errors")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
