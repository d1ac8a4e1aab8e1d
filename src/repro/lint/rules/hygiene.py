"""RPR4xx — performance and observability hygiene.

RPR401: the hot-path record modules (protocol messages, sim events and
datagrams) allocate millions of instances per run; PR 5 measured the
``__slots__`` win, so every class there must be slotted (or a NamedTuple).

RPR402: obs instrumentation must be RNG/schedule-neutral and near-free
when disabled (PR 6 discipline).  The one blessed shape is the
nil-guarded local bind::

    obs = self.obs            # one attribute load
    if obs is not None:
        obs.record(...)

Chained uses (``self.obs.record(...)``) re-load the attribute per call
and, unguarded, crash every untraced run; guards on the attribute chain
itself (``if self.net.obs is not None``) re-load inside the branch.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, ProjectContext, Violation
from repro.lint.rules import rule

_EXEMPT_BASES = frozenset(
    {"NamedTuple", "Exception", "BaseException", "Protocol", "Enum", "IntEnum"}
)


def _base_names(klass: ast.ClassDef):
    for base in klass.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def _has_slots(klass: ast.ClassDef) -> bool:
    for stmt in klass.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for t in targets:
            if isinstance(t, ast.Name) and t.id == "__slots__":
                return True
    return False


def _is_slotted_dataclass(klass: ast.ClassDef) -> bool:
    for deco in klass.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = deco.func.id if isinstance(deco.func, ast.Name) else (
            deco.func.attr if isinstance(deco.func, ast.Attribute) else ""
        )
        if name != "dataclass":
            continue
        for kw in deco.keywords:
            if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
    return False


@rule(
    "RPR401",
    "hot-path-slots",
    "classes in hot-path record modules must declare __slots__",
)
def check_hot_path_slots(
    ctx: FileContext, project: ProjectContext
) -> Iterator[Violation]:
    key = ctx.relpath.removeprefix("src/")
    if key not in project.layers.scopes["slots"]:
        return
    for klass in ctx.tree.body:
        if not isinstance(klass, ast.ClassDef):
            continue
        bases = set(_base_names(klass))
        if bases & _EXEMPT_BASES:
            continue
        if _has_slots(klass) or _is_slotted_dataclass(klass):
            continue
        yield ctx.violation(
            "RPR401",
            klass,
            f"class {klass.name} in hot-path module {key} has no __slots__; "
            f"use @dataclass(slots=True), an explicit __slots__ tuple or a "
            f"NamedTuple (PR 5 measured the per-instance dict cost)",
        )


def _obs_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "obs"


@rule(
    "RPR402",
    "nil-guarded-obs",
    "obs instrumentation must local-bind then nil-guard (obs = self.obs; "
    "if obs is not None)",
)
def check_obs_guard(
    ctx: FileContext, project: ProjectContext
) -> Iterator[Violation]:
    if ctx.package not in project.layers.scopes["obs_guard"]:
        return
    for node in ast.walk(ctx.tree):
        # chained use: <expr>.obs.<attr> / <expr>.obs(...) / <expr>.obs[...]
        inner = None
        if isinstance(node, ast.Attribute) and _obs_attr(node.value):
            inner = node.value
        elif isinstance(node, (ast.Call, ast.Subscript)) and _obs_attr(
            node.func if isinstance(node, ast.Call) else node.value
        ):
            inner = node.func if isinstance(node, ast.Call) else node.value
        if inner is not None and isinstance(inner.ctx, ast.Load):
            yield ctx.violation(
                "RPR402",
                node,
                "chained use of `.obs` re-loads the attribute per record; "
                "bind it locally first (obs = self.obs; if obs is not None)",
            )
            continue
        # guard on the attribute chain itself: if <expr>.obs is (not) None
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            if isinstance(node.ops[0], (ast.Is, ast.IsNot)):
                left, right = node.left, node.comparators[0]
                operand = None
                if isinstance(right, ast.Constant) and right.value is None:
                    operand = left
                elif isinstance(left, ast.Constant) and left.value is None:
                    operand = right
                if operand is not None and _obs_attr(operand):
                    yield ctx.violation(
                        "RPR402",
                        node,
                        "nil-guard tests the `.obs` attribute chain directly; "
                        "the branch re-loads it — bind locally first "
                        "(obs = self.obs; if obs is not None)",
                    )
