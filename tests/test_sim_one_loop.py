"""One way to wait, checked over ``src/repro``.

:meth:`~repro.sim.engine.Simulator.run` is the simulator's one event loop
and :attr:`~repro.sim.engine.Simulator.max_events` its one budget.  A
blocking call (a client pump, a lookup batch) waits by running it with a
``done`` predicate or an ``until`` time.  So outside ``sim/engine.py`` no
code may fire events from a loop of its own — a ``.step()`` call in a
``for``/``while`` or a comprehension — or reach for the deleted
``drain``.  ``Simulator`` has no ``step`` either, nor ``call_soon``
(``schedule(0.0, cb)`` pushes the same ``(now, seq)``).

The check is syntactic: ``drain`` is any name or attribute spelt so.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.sim.engine import Simulator

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
OWNER = SRC / "sim" / "engine.py"

LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def _is_step_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "step" and not node.args and not node.keywords)


def own_loops(source: str) -> list[tuple[int, str]]:
    """``(line, what)`` for every ``.step()`` called in a loop and every
    reference to ``drain``."""
    tree = ast.parse(source)
    found: set[tuple[int, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, LOOPS):
            found.update((call.lineno, "step() in a loop")
                         for call in ast.walk(node) if _is_step_call(call))
        elif (isinstance(node, ast.Attribute) and node.attr == "drain"
              or isinstance(node, ast.Name) and node.id == "drain"):
            found.add((node.lineno, "drain"))
    return sorted(found)


def test_only_the_engine_runs_an_event_loop():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == OWNER:
            continue
        offenders += [f"{path.relative_to(SRC)}:{line}: {what}"
                      for line, what in own_loops(path.read_text())]
    assert offenders == []


def test_the_simulator_has_no_drain():
    for name in ("drain", "step", "call_soon"):
        assert not hasattr(Simulator, name), name
        assert not hasattr(Simulator(), name), name


#: The waits ``core/treep.py``, ``baselines/`` and ``bench/scenarios`` ran
#: before every blocking call went through ``Simulator.run``.
_FORMER_WAITS = [
    # TreePNetwork.pump
    "while not slot and sim.now < deadline:\n"
    "    if not sim.step():\n"
    "        break",
    # TreePNetwork.lookup_sync
    "while pend.result is None and sim.step():\n    pass",
    # run_lookup_batch (TreeP, Chord, flooding) and the systems scenario
    "self.sim.drain()",
    "net.sim.drain()",
    "fired = sim.drain(max_events=100)",
]


@pytest.mark.parametrize("source", _FORMER_WAITS)
def test_the_guard_flags_every_former_wait(source):
    assert own_loops(source)


def test_the_guard_leaves_single_steps_and_other_names_alone():
    source = "\n".join((
        "assert sim.step()",
        "sim.run(done=lambda: bool(slot))",
        "self._drain_queue()",
        "for k in keys:\n    rng.step(k)",
        "while True:\n    sim.run(until=t)",
        "apply_failure_step(net)",
    ))
    assert own_loops(source) == []
