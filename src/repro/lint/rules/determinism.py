"""RPR1xx — fixed-seed determinism.

The committed golden rests on bit-identical metrics at a fixed seed
(see ``docs/benchmarks.md``): one wall-clock read or global-RNG draw in a
simulation package and every "identical run" comparison silently rots.
A run is also a value: ``copy.deepcopy`` or ``pickle`` forks it, which
holds only while no closure sits in its state (RPR103).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.engine import FileContext, ProjectContext, Violation
from repro.lint.rules import rule

#: module attribute -> why it is nondeterministic (or wall-clock)
_BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "time.process_time": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived id",
    "uuid.uuid4": "OS entropy",
    "random.SystemRandom": "OS entropy",
}

#: seeded-instance constructors -> their seed parameter: the only
#: ``random`` / ``numpy.random`` attributes allowed, and only with a seed
#: (no seed, or a literal ``None``, seeds from OS entropy)
_SEEDED_CTORS = {
    "random.Random": "x",
    "numpy.random.default_rng": "seed",
    "numpy.random.SeedSequence": "entropy",
    **{
        f"numpy.random.{name}": "seed"
        for name in ("BitGenerator", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64")
    },
}


def _unseeded(call: ast.Call, param: str) -> bool:
    if call.args:
        seed = call.args[0]
    else:
        # a ``**kwargs`` splat (arg None) may carry the seed: trust it
        seed = next(
            (kw.value for kw in call.keywords if kw.arg in (param, None)), None
        )
        if seed is None:
            return True
    return isinstance(seed, ast.Constant) and seed.value is None


def _reason(call: ast.Call, dotted: str) -> Optional[str]:
    """Why calling ``dotted`` is nondeterministic, or None if it is not."""
    if dotted in _BANNED_CALLS:
        return _BANNED_CALLS[dotted]
    if dotted.startswith("secrets."):
        return "OS entropy"
    if dotted in _SEEDED_CTORS:
        return "unseeded, so OS entropy" if _unseeded(call, _SEEDED_CTORS[dotted]) else None
    if dotted.startswith("random.") and "." not in dotted[len("random."):]:
        return "global random module state"
    if dotted.startswith("numpy.random.") and dotted != "numpy.random.Generator":
        return "global numpy.random state"
    return None


def _alias_map(tree: ast.AST) -> Dict[str, str]:
    """Local name -> dotted origin for every import in the file."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for a in node.names:
                if a.name != "*":
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> str:
    """Resolve ``np.random.seed`` -> ``numpy.random.seed`` (or "")."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


@rule(
    "RPR101",
    "no-nondeterministic-sources",
    "no wall-clock, global-RNG or OS-entropy reads in simulation packages",
)
def check_nondeterministic_sources(
    ctx: FileContext, project: ProjectContext
) -> Iterator[Violation]:
    if ctx.package not in project.layers.scopes["determinism"]:
        return
    aliases = _alias_map(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func, aliases)
        if not dotted:
            continue
        reason = _reason(node, dotted)
        if reason is not None:
            yield ctx.violation(
                "RPR101",
                node,
                f"nondeterministic source `{dotted}()` ({reason}) in "
                f"deterministic package `{ctx.package}`; draw from a seeded "
                f"generator (sim.rng substream or random.Random(seed))",
            )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "intersection", "union", "difference", "symmetric_difference",
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # `a | b` etc. over two set expressions
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@rule(
    "RPR102",
    "no-set-order-iteration",
    "no iteration over set expressions feeding ordering-sensitive decisions",
)
def check_set_iteration(
    ctx: FileContext, project: ProjectContext
) -> Iterator[Violation]:
    """Set iteration order depends on ``PYTHONHASHSEED`` for str/object
    elements; in the flagged packages every such loop feeds a scheduling
    or routing decision, so it must go through ``sorted(...)``."""
    if ctx.package not in project.layers.scopes["determinism"]:
        return
    iters = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            iters.extend(g.iter for g in node.generators)
    for it in iters:
        if _is_set_expr(it):
            yield ctx.violation(
                "RPR102",
                it,
                "iteration over a set expression (hash-order, varies with "
                "PYTHONHASHSEED); wrap in sorted(...) to pin the order",
            )


#: The calls that queue a callback, and the keyword names it may go by.
_SCHEDULERS = frozenset({"schedule", "schedule_at", "every"})
_SCHEDULER_KEYWORDS = frozenset({"callback", "jitter"})


def _stored_callables(call: ast.Call) -> Iterator[ast.AST]:
    """What *call* keeps to call later: a scheduler's callback (second
    positional, or ``callback=``) and ``jitter=``, and any ``on_done=``;
    for a ``partial(fn, ...)`` among them, its *fn*."""
    stored = [kw.value for kw in call.keywords if kw.arg == "on_done"]
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _SCHEDULERS:
        stored += call.args[1:2]
        stored += [kw.value for kw in call.keywords
                   if kw.arg in _SCHEDULER_KEYWORDS]
    for arg in stored:
        while (isinstance(arg, ast.Call) and arg.args
               and _dotted(arg.func, {}).rsplit(".", 1)[-1] == "partial"):
            arg = arg.args[0]
        yield arg


def _local_closures(fn: ast.AST) -> Set[str]:
    """The names *fn* binds to a nested ``def`` or to a ``lambda``."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if node is not fn and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@rule(
    "RPR103",
    "no-stored-closures",
    "no lambda or nested def queued as a callback or stored as on_done in "
    "simulation packages",
)
def check_stored_closures(
    ctx: FileContext, project: ProjectContext
) -> Iterator[Violation]:
    """A closure captures the objects it names when it is made, so a
    ``copy.deepcopy`` of the run still calls the original's and ``pickle``
    refuses it; a bound method or a ``functools.partial`` of one goes
    with its instance."""
    if ctx.package not in project.layers.scopes["determinism"]:
        return
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found: Dict[int, Tuple[ast.AST, str]] = {}
    for scope in ast.walk(ctx.tree):
        if not isinstance(scope, (ast.Module, *defs)):
            continue
        # A name a function binds to a def or a lambda is a closure; one
        # bound at module scope is a plain function.
        nested = () if isinstance(scope, ast.Module) else _local_closures(scope)
        for call in ast.walk(scope):
            if not isinstance(call, ast.Call):
                continue
            for arg in _stored_callables(call):
                if isinstance(arg, ast.Lambda):
                    found[id(arg)] = (arg, "a lambda")
                elif isinstance(arg, ast.Name) and arg.id in nested:
                    found[id(arg)] = (arg, f"the closure `{arg.id}`")
    for arg, what in sorted(found.values(),
                            key=lambda p: (p[0].lineno, p[0].col_offset)):
        yield ctx.violation(
            "RPR103",
            arg,
            f"{what} stored as a simulation callback captures the objects "
            f"it names, so a copy of the run would call the original's and "
            f"pickle refuses it; store a bound method or a functools.partial "
            f"of one",
        )
