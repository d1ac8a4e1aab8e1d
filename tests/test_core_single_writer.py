"""The single-writer rule for routing state, checked over ``src/repro``.

The router caches a candidate view per table keyed on
:attr:`~repro.core.routing_table.RoutingTable.version`, and only the table's
own methods bump it.  So outside ``core/routing_table.py`` no code may assign
or augment-assign a table's role containers, assign or ``del`` an item of
them, or call a ``set``/``dict`` mutator on them: such a write would leave a
cached view stale.  Nor may it write ``children`` through the generic
``link``/``unlink``/``set_role``: the child methods keep the flat set and the
per-level lists one store.  Reads stay free.

The check is syntactic.  A *table* is ``<anything>.table``, ``RoutingTable(...)``,
a name bound to either in the same module, or a parameter annotated
``RoutingTable`` — so ``Span.children`` and a layout's ``children`` are not
tables' roles.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
OWNER = SRC / "core" / "routing_table.py"

ROLES = frozenset(("level0", "level0_indirect", "children", "neighbour_children",
                   "superiors", "parents", "level_tables", "level_children"))
#: The table's generic role writers; ``children`` has its own methods, which
#: keep it and ``level_children`` in step.
GENERIC_WRITERS = frozenset(("link", "unlink", "set_role"))
MUTATORS = frozenset((
    "add", "discard", "remove", "pop", "clear", "update", "difference_update",
    "intersection_update", "symmetric_difference_update", "setdefault", "popitem"))


def _table_names(tree: ast.AST) -> set[str]:
    """Names the module binds to a routing table."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.arg) and isinstance(node.annotation, ast.Name)
                and node.annotation.id == "RoutingTable"):
            names.add(node.arg)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            is_table = (
                isinstance(value, ast.Attribute) and value.attr == "table"
                or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "RoutingTable")
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if is_table:
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _is_table(node: ast.expr, tables: set[str]) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "table"
            or isinstance(node, ast.Name) and node.id in tables)


def _role_reached(node: ast.expr, tables: set[str]) -> str | None:
    """The table role *node* is (or an item of, through subscripts and
    ``.get(...)``), else ``None``."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get"):
            node = node.func.value
        else:
            break
    if isinstance(node, ast.Attribute) and node.attr in ROLES and _is_table(node.value, tables):
        return node.attr
    return None


def _targets(node: ast.expr):
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def role_writes(source: str) -> list[tuple[int, str]]:
    """``(line, role)`` for every write to a routing table's role state."""
    tree = ast.parse(source)
    tables = _table_names(tree)
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            written = [t for target in node.targets for t in _targets(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            written = list(_targets(node.target))
        elif isinstance(node, ast.Delete):
            written = [t for target in node.targets for t in _targets(target)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            written = [node.func.value]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in GENERIC_WRITERS and node.args
              and isinstance(node.args[0], ast.Constant)
              and node.args[0].value == "children"
              and _is_table(node.func.value, tables)):
            found.append((node.lineno, "children"))
            continue
        else:
            continue
        for target in written:
            role = _role_reached(target, tables)
            if role is not None:
                found.append((node.lineno, role))
    return sorted(found)


def test_only_the_routing_table_writes_role_state():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == OWNER:
            continue
        offenders += [f"{path.relative_to(SRC)}:{line}: {role}"
                      for line, role in role_writes(path.read_text())]
    assert offenders == []


#: The writes ``core/node.py`` (8) and ``core/repair.py`` (5) made directly
#: before the table's methods took them over, in their original form.
_DIRECT_WRITES = [
    "self.table.level0.discard(msg.right)",
    "self.table.level0.discard(msg.left)",
    "self.table.children.discard(best)",
    "old_parent = self.table.parents.pop(msg.to_level, None)",
    "self.table.level_tables.pop(level, None)",
    "del self.table.parents[msg.level]",
    "self.table.level_tables.get(msg.level, set()).discard(msg.node)",
    "self.table.children.discard(msg.node)",
    "t = node.table\nt.level0 = {i for i in (left, right) if i is not None}",
    "t = node.table\nt.level0.add(i)",
    "t = node.table\nt.level0_indirect = new_indirect - t.level0",
    "t = node.table\nt.neighbour_children = fresh_nc",
    "t = node.table\nt.superiors = new_sup",
]


@pytest.mark.parametrize("source", _DIRECT_WRITES)
def test_the_guard_flags_every_former_direct_write(source):
    assert role_writes(source)


#: The writes ``core/treep.py``, ``core/node.py`` (2), ``core/repair.py`` (2)
#: and ``core/maintenance.py`` made to the node's own per-level child lists
#: before the table held them, aimed at the table's map; and the two generic
#: ``children`` writes ``core/node.py`` made beside them.
_CHILD_LIST_WRITES = [
    "node.table.level_children[lvl] = list(kids)",
    "kids = self.table.level_children.setdefault(level, [])",
    "for c in self.table.level_children.pop(level, []):\n    self.send(c, msg)",
    "t = node.table\nt.level_children[lvl] = [k for k in kids if t.get(k) is not None]",
    "kids = parent.table.level_children.setdefault(lvl, [])",
    "node.table.level_children[level] = [k for k in kids if k not in expired]",
    'self.table.unlink("children", best)',
    'self.table.unlink("children", msg.node)',
]


@pytest.mark.parametrize("source", _CHILD_LIST_WRITES)
def test_the_guard_flags_every_former_child_list_write(source):
    assert role_writes(source)


@pytest.mark.parametrize("source", [
    "def f(t: RoutingTable):\n    t.parents[1] = 5",
    "table = RoutingTable(3)\ntable.children |= {4}",
    "node.table.superiors.update({1})",
    "net.nodes[i].table.level_tables[2] = {1}",
    "a, self.table.level0 = 1, {2}",
])
def test_the_guard_flags_other_shapes_of_a_write(source):
    assert role_writes(source)


def test_the_guard_leaves_reads_and_other_childrens_alone():
    source = "\n".join((
        "parent.children.append(span)",
        "span.children.sort(key=len)",
        "layout.children[(p, j)] = kids",
        "self.children.setdefault(key, [])",
        "node.children_by_level.pop(2, None)",
        "t = hops.column('t')",
        "t.children.add(3)",
        "table = self.node.table",
        "peers = sorted((table.level0 | table.children) - {1})",
        "p = node.table.parents.get(lvl)",
        "kids = [i for i in node.table.children if i not in exclude]",
        "n = len(node.table.level_children.get(level, ()))",
        'self.table.unlink("level0", msg.right)',
        'span.link("children", 3)',
    ))
    assert role_writes(source) == []
