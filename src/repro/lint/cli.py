"""``python -m repro.lint`` — the invariant analyzer's command line.

Exit codes: 0 clean (or everything suppressed), 1 violations, 2 usage
error (a path that does not exist, a malformed layer map).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.engine import LintEngine, LintReport
from repro.lint.layers import default_layers_path, load_layer_map
from repro.lint.rules import all_rules

FORMATS = ("text", "github")


def find_project_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor with a pyproject.toml (falls back to the tree
    this module was installed from, so the CLI works from any cwd)."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    packaged = Path(__file__).resolve().parents[3]
    return packaged


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant analyzer: determinism (RPR1xx), "
        "layering vs layers.toml (RPR2xx), lifecycle hygiene (RPR3xx), "
        "perf/obs hygiene (RPR4xx).",
    )
    p.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    p.add_argument(
        "--format", choices=FORMATS, default="text", dest="fmt",
        help="output format (github emits workflow annotations)",
    )
    p.add_argument(
        "--layers", metavar="FILE", type=Path,
        help=f"layer map (default: {default_layers_path().name} shipped "
        f"with repro.lint)",
    )
    p.add_argument(
        "--project-root", metavar="DIR", type=Path,
        help="repo root for relative paths (default: nearest pyproject.toml)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return p


def render(report: LintReport, fmt: str, stream) -> None:
    for v in report.violations:
        if fmt == "github":
            stream.write(
                f"::error file={v.path},line={v.line},col={v.col},"
                f"title={v.code}::{v.message}\n"
            )
        else:
            stream.write(f"{v.path}:{v.line}:{v.col} {v.code} {v.message}\n")
    if fmt == "text":
        extra = f" ({report.suppressed} suppressed)" if report.suppressed else ""
        stream.write(
            f"{len(report.violations)} violation(s) in {report.files} "
            f"file(s){extra}\n"
        )


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    stream = stream or sys.stdout
    args = build_parser().parse_args(argv)
    rules = all_rules()
    if args.list_rules:
        for code in sorted(rules):
            r = rules[code]
            stream.write(f"{code}  {r.name}: {r.summary}\n")
        return 0
    try:
        engine = LintEngine(
            root=(args.project_root or find_project_root()).resolve(),
            rules={c: r.check for c, r in rules.items()},
            layers=load_layer_map(args.layers),
        )
        report = engine.run(args.paths)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"repro.lint: {exc}\n")
        return 2
    render(report, args.fmt, stream)
    return 0 if report.clean else 1
