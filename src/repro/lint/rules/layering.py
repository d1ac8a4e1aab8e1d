"""RPR2xx — layering.

RPR201 checks every ``repro.*`` import edge against the layer map
(``repro/lint/layers.toml``), the one statement of the import graph.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.engine import FileContext, ProjectContext, Violation, walk_with_depth
from repro.lint.rules import rule


def _import_edges(ctx: FileContext) -> Iterator[Tuple[ast.AST, str, bool]]:
    """Yield ``(node, imported_module, is_lazy)`` for every repro import."""
    for node, depth in walk_with_depth(ctx.tree):
        lazy = depth > 0
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "repro" or a.name.startswith("repro."):
                    yield node, a.name, lazy
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                resolved = _resolve_relative(ctx, node)
                if resolved is not None:
                    yield node, resolved, lazy
            elif node.module == "repro":
                for a in node.names:
                    yield node, f"repro.{a.name}", lazy
            elif node.module and node.module.startswith("repro."):
                yield node, node.module, lazy


def _resolve_relative(ctx: FileContext, node: ast.ImportFrom) -> Optional[str]:
    if ctx.module is None:
        return None
    parts = ctx.module.split(".")
    if not ctx.is_package:
        parts = parts[:-1]
    # one leading dot = the containing package; each extra dot goes up one
    parts = parts[: len(parts) - (node.level - 1)]
    if node.module:
        parts = parts + node.module.split(".")
    return ".".join(parts) if parts else None


def _target_package(module: str) -> str:
    dotted = module.split(".")
    return dotted[1] if len(dotted) > 1 else "repro"


@rule(
    "RPR201",
    "layer-imports",
    "every repro.* import edge must be allowed by the layer map",
)
def check_layer_imports(
    ctx: FileContext, project: ProjectContext
) -> Iterator[Violation]:
    if ctx.package is None:
        return
    policy = project.layers.policy_for(ctx.relpath, ctx.package)
    if policy is None:
        yield ctx.violation(
            "RPR201",
            ctx.tree,
            f"package `{ctx.package}` has no [package.{ctx.package}] entry "
            f"in layers.toml; declare its layer contract before importing "
            f"across packages",
        )
        return
    for node, module, lazy in _import_edges(ctx):
        target = _target_package(module)
        if target == ctx.package:
            continue
        if target not in policy.reachable:
            yield ctx.violation(
                "RPR201",
                node,
                f"`{ctx.package}` may not import `{target}` "
                f"(module {module}); allowed: "
                f"{sorted(policy.reachable) or 'nothing in repro'} "
                f"per layers.toml",
            )
            continue
        if not lazy and target not in policy.may_import:
            yield ctx.violation(
                "RPR201",
                node,
                f"`{ctx.package}` may import `{target}` only lazily "
                f"(function scope), not at module scope (module {module})",
            )
            continue
        allowed_via = policy.via.get(target)
        if allowed_via is not None and not any(
            module == v or module.startswith(v + ".") for v in allowed_via
        ):
            yield ctx.violation(
                "RPR201",
                node,
                f"`{ctx.package}` may reach `{target}` only via "
                f"{', '.join(allowed_via)} (imported {module})",
            )
