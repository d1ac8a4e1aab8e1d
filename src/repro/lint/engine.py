"""Core of the ``repro.lint`` analyzer.

One :class:`FileContext` per file — a single ``ast.parse`` and a single
``tokenize`` pass shared by every rule — plus the suppression protocol
and the :class:`LintEngine` driver.

The analyzer is deliberately **stdlib-only and self-contained**: it never
imports the code it analyzes, so a layering bug in ``src/repro`` can never
take the linter down with it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Sequence

from repro.lint.layers import LayerMap

__all__ = [
    "FileContext",
    "LintEngine",
    "LintReport",
    "ProjectContext",
    "Suppression",
    "Violation",
]

# Engine-owned diagnostics (not in the rule registry: they guard the
# analysis protocol itself and cannot be disabled).
PARSE_ERROR = "RPR000"
BARE_SUPPRESSION = "RPR001"


# --------------------------------------------------------------- violations
@dataclass(frozen=True)
class Violation:
    """One finding: a stable rule code anchored at a source location."""

    code: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)


# ------------------------------------------------------------- suppressions
#: ``# repro-lint: disable=RPR101[,RPR402] <justification>`` — the
#: justification is *required*; a bare disable earns RPR001 and the
#: original violation still stands.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z0-9, ]+?)(?:\s+(\S.*?))?\s*$"
)


@dataclass
class Suppression:
    line: int
    codes: frozenset
    justification: str


def parse_suppressions(source: str) -> Dict[int, Suppression]:
    """Map line number -> suppression, via a real tokenizer pass.

    Using :mod:`tokenize` (not a per-line regex) means a string literal
    that *contains* ``# repro-lint:`` can never create a phantom
    suppression.
    """
    out: Dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if m is None:
                continue
            codes = frozenset(
                c.strip() for c in m.group(1).split(",") if c.strip()
            )
            out[tok.start[0]] = Suppression(
                line=tok.start[0],
                codes=codes,
                justification=(m.group(2) or "").strip(),
            )
    except tokenize.TokenError:
        pass  # the parse error is reported as RPR000 by the engine
    return out


# ------------------------------------------------------------ file context
class FileContext:
    """Everything a rule may ask about one source file (parsed once)."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        #: posix path relative to the project root, e.g. ``src/repro/core/node.py``
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.suppressions = parse_suppressions(source)
        self.module, self.package, self.is_package = _module_of(relpath)

    # convenience for rules -------------------------------------------------
    def violation(self, code: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            code=code,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def _module_of(relpath: str):
    """``src/repro/core/node.py`` -> (``repro.core.node``, ``core``, False).

    Files outside ``src/`` have no module identity (package rules skip
    them); the package of ``src/repro/__init__.py`` itself is ``repro``.
    """
    parts = Path(relpath).parts
    if len(parts) < 2 or parts[0] != "src" or not relpath.endswith(".py"):
        return None, None, False
    mod_parts = list(parts[1:])
    is_package = mod_parts[-1] == "__init__.py"
    if is_package:
        mod_parts = mod_parts[:-1]
    else:
        mod_parts[-1] = mod_parts[-1][: -len(".py")]
    module = ".".join(mod_parts)
    if not module.startswith("repro"):
        return None, None, False
    dotted = module.split(".")
    # A plain module directly under src/repro/ (rare) belongs to the root
    # package; subpackage membership comes from the first path segment.
    if len(dotted) >= 3 or (len(dotted) == 2 and is_package):
        package = dotted[1]
    else:
        package = "repro"
    return module, package, is_package


# --------------------------------------------------------- project context
@dataclass
class ProjectContext:
    """Shared, immutable-per-run state handed to every rule."""

    root: Path
    layers: LayerMap


# ------------------------------------------------------------------- report
@dataclass
class LintReport:
    violations: List[Violation] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations


# ------------------------------------------------------------------- engine
RuleFn = Callable[[FileContext, ProjectContext], Iterator[Violation]]


class LintEngine:
    """Walk files, run rules and apply suppressions."""

    def __init__(
        self, root: Path, rules: Mapping[str, RuleFn], layers: LayerMap
    ) -> None:
        self.root = Path(root)
        self.project = ProjectContext(root=self.root, layers=layers)
        self.rules = dict(rules)

    # ----------------------------------------------------------- discovery
    def iter_files(self, paths: Sequence[Path]) -> Iterator[Path]:
        seen = set()
        for p in paths:
            p = Path(p)
            if not p.is_absolute():
                p = self.root / p
            if not p.exists():
                raise FileNotFoundError(f"no such file or directory: {p}")
            candidates = [p] if p.is_file() else sorted(p.rglob("*.py"))
            for f in candidates:
                if "__pycache__" in f.parts or f.suffix != ".py":
                    continue
                if f not in seen:
                    seen.add(f)
                    yield f

    # ------------------------------------------------------------- linting
    def lint_file(self, path: Path, report: LintReport) -> List[Violation]:
        relpath = path.relative_to(self.root).as_posix() if path.is_relative_to(
            self.root
        ) else path.as_posix()
        source = path.read_text()
        try:
            ctx = FileContext(path, relpath, source)
        except SyntaxError as exc:
            return [
                Violation(
                    PARSE_ERROR, relpath, exc.lineno or 1, (exc.offset or 0) + 1,
                    f"file does not parse: {exc.msg}",
                )
            ]
        raw: List[Violation] = []
        for fn in self.rules.values():
            raw.extend(fn(ctx, self.project))

        kept: List[Violation] = []
        flagged_bare: set = set()
        for v in sorted(raw, key=Violation.sort_key):
            sup = ctx.suppressions.get(v.line)
            if sup is not None and v.code in sup.codes:
                if sup.justification:
                    report.suppressed += 1
                    continue
                if sup.line not in flagged_bare:
                    flagged_bare.add(sup.line)
                    kept.append(
                        Violation(
                            BARE_SUPPRESSION, relpath, sup.line, 1,
                            "suppression without justification: say *why* "
                            "the invariant does not apply here",
                        )
                    )
                # the original violation still stands
            kept.append(v)
        return kept

    def run(self, paths: Sequence[Path]) -> LintReport:
        report = LintReport()
        for path in self.iter_files(paths):
            report.files += 1
            report.violations.extend(self.lint_file(path, report))
        report.violations.sort(key=Violation.sort_key)
        return report


# ------------------------------------------------------------------ helpers
def walk_with_depth(tree: ast.AST) -> Iterator[tuple]:
    """Yield ``(node, depth)`` where depth 0 means module top level.

    Depth increases when entering any statement body, so import statements
    at depth > 0 are *lazy* (function/method/branch scope) — the
    distinction the layer map cares about.
    """
    stack = [(tree, -1)]
    while stack:
        node, depth = stack.pop()
        if depth >= 0:
            yield node, depth
        for child in ast.iter_child_nodes(node):
            stack.append((child, depth + 1))
