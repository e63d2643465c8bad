"""Command-line driver for braidio-analyzer.

    python3 tools/analyzer                      # analyze src/
    python3 tools/analyzer --list               # rule docs
    python3 tools/analyzer path1.cpp path2.hpp  # specific files
    python3 tools/analyzer --compile-commands build/compile_commands.json
    python3 tools/analyzer --json out.json --sarif out.sarif

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import backend_lexical
import rules
import sarif
from model import RULES

REPO = Path(__file__).resolve().parent.parent.parent
CXX_SUFFIXES = {".cpp", ".hpp"}


def _tu_paths(compile_commands: Path | None,
              roots: list[Path]) -> list[Path]:
    """The files to analyze: TUs from compile_commands (filtered to the
    requested roots) plus every header under the roots; or a plain walk
    when no database is given."""
    files: set[Path] = set()
    root_strs = [str(r.resolve()) for r in roots]

    def wanted(path: Path) -> bool:
        resolved = str(path.resolve())
        return any(resolved == r or resolved.startswith(r + "/")
                   for r in root_strs)

    if compile_commands is not None:
        try:
            entries = json.loads(compile_commands.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise SystemExit(
                f"analyzer: cannot read {compile_commands}: {error}")
        for entry in entries:
            path = Path(entry["directory"]) / entry["file"]
            if path.suffix in CXX_SUFFIXES and wanted(path):
                files.add(path.resolve())
    for root in roots:
        if root.is_file():
            files.add(root.resolve())
            continue
        for path in root.rglob("*"):
            if path.suffix == ".hpp" or (compile_commands is None and
                                         path.suffix in CXX_SUFFIXES):
                files.add(path.resolve())
    return sorted(files)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/analyzer",
        description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src/)")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="compile_commands.json to enumerate TUs")
    parser.add_argument("--json", type=Path, default=None,
                        help="write machine-readable findings JSON")
    parser.add_argument("--sarif", type=Path, default=None,
                        help="write SARIF 2.1.0 findings")
    parser.add_argument("--list", action="store_true",
                        help="print the rules and exit")
    args = parser.parse_args(argv)

    if args.list:
        for rule in RULES:
            print(f"{rule.rule_id:20s} (suppress: {rule.key})\n"
                  f"    {rule.summary}")
        return 0

    roots = ([Path(p) for p in args.paths] if args.paths
             else [REPO / "src"])
    for root in roots:
        if not root.exists():
            print(f"analyzer: no such path: {root}", file=sys.stderr)
            return 2

    try:
        paths = _tu_paths(args.compile_commands, roots)
        models = [backend_lexical.build_model(path, REPO)
                  for path in paths]
    except SystemExit as error:
        print(error, file=sys.stderr)
        return 2
    findings = rules.run_all(models)

    if args.json is not None:
        args.json.write_text(sarif.to_json(findings, len(models)))
    if args.sarif is not None:
        args.sarif.write_text(sarif.to_sarif(findings))

    for finding in findings:
        print(finding.render())
    if findings:
        print(f"\ntools/analyzer: {len(findings)} "
              f"finding(s) in {len(models)} file(s)", file=sys.stderr)
        return 1
    print(f"tools/analyzer: clean ({len(models)} files)")
    return 0
