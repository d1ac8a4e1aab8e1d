"""RPR3xx — lifecycle hygiene.

Timer leaks are *structurally* impossible for code that goes through the
service context (``ServiceContext.every``): the context sweeps everything
on detach and node departure.  Code that arms a raw ``sim.every`` outside
that path re-acquires the leak risk — RPR301 demands the class own the
matching ``stop``.  (Handlers have no per-node registration left to leak:
a service declares them once, in ``Service.handlers()``.)
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.engine import FileContext, ProjectContext, Violation
from repro.lint.rules import rule

_STOP_ATTRS = frozenset({"stop", "stop_all", "cancel"})


def _receiver_chain(node: ast.AST) -> List[str]:
    """``self.ctx.every`` -> ['self', 'ctx', 'every'] (best effort)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.extend(_receiver_chain(node.func))
    return list(reversed(parts))


def _attr_calls(tree: ast.AST, attr: str) -> List[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    ]


@rule(
    "RPR301",
    "paired-lifecycle-cleanup",
    "raw sim.every outside the service context needs a paired stop in the "
    "same class",
)
def check_lifecycle_pairing(
    ctx: FileContext, project: ProjectContext
) -> Iterator[Violation]:
    if ctx.relpath.removeprefix("src/") in project.layers.scopes["lifecycle"]:
        return  # the service context itself owns cleanup by construction
    for klass in ast.walk(ctx.tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        has_stop = any(
            _attr_calls(klass, attr) for attr in _STOP_ATTRS
        )
        for call in _attr_calls(klass, "every"):
            chain = _receiver_chain(call.func)
            if "ctx" in chain[:-1]:
                continue  # ServiceContext.every: cancelled by the context
            if not has_stop:
                yield ctx.violation(
                    "RPR301",
                    call,
                    f"class {klass.name} arms a periodic timer via "
                    f"{'.'.join(chain)}(...) without a paired stop()/cancel() "
                    f"in the class; use ctx.every(...) or stop the timer in "
                    f"teardown",
                )
