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
import copy
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import heap_size, reference_run
from repro.sim.engine import SimulationError, Simulator
from repro.sim.network import Network, Process

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


# ------------------------------------------- the inline loop vs the old one

ADDRESSES = (1, 2, 3, 4)
UNKNOWN = 9  # never registered: a send there is dropped as unknown

_ACTION = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(ADDRESSES),
              st.sampled_from(ADDRESSES + (UNKNOWN,)), st.integers(0, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.tuples(st.just("burst"), st.integers(40, 160)),
    st.tuples(st.just("down"), st.sampled_from(ADDRESSES)),
    st.tuples(st.just("up"), st.sampled_from(ADDRESSES)),
    st.tuples(st.just("noop")),
)
_TIMER = st.tuples(st.floats(0.0, 5.0), _ACTION,
                   st.one_of(st.none(), st.tuples(st.floats(0.0, 3.0), _ACTION)))
_RUN = st.one_of(
    st.tuples(st.just("until"), st.floats(0.0, 4.0)),
    st.tuples(st.just("done"), st.integers(0, 40)),
    st.tuples(st.just("all")),
)
PLANS = st.fixed_dictionaries({
    "timers": st.lists(_TIMER, min_size=1, max_size=40),
    "latencies": st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
    "down": st.sets(st.sampled_from(ADDRESSES), max_size=2),
    "budget": st.sampled_from((5, 30, 10_000)),
    "hook": st.booleans(),
    "runs": st.lists(_RUN, min_size=1, max_size=5),
})


class _Script:
    """Latencies from a fixed list, in turn."""

    def __init__(self, values):
        self.values, self.i = values, 0

    def sample(self, src, dst):
        self.i += 1
        return self.values[self.i % len(self.values)]


class _Node(Process):
    """Echoes a datagram back while its hop budget lasts."""

    def on_datagram(self, dgram):
        if dgram.payload:
            self.network.send(self.address, dgram.src, dgram.payload - 1)


class _World:
    """One simulation built from a drawn plan: timers whose callbacks
    send, cancel, burst-schedule-and-cancel (so the queue compacts
    mid-run), crash and revive nodes, and re-arm once."""

    def __init__(self, plan):
        self.sim = Simulator()
        self.sim.max_events = plan["budget"]
        self.net = Network(self.sim, _Script(plan["latencies"]))
        for a in ADDRESSES:
            self.net.register(_Node(a))
        for a in sorted(plan["down"]):
            self.net.set_down(a)
        self.fired = []
        if plan["hook"]:
            self.sim.set_event_hook(self._seen)
        self.events = []
        for delay, action, then in plan["timers"]:
            self._arm(delay, action, then)

    def _seen(self, ev):
        self.fired.append((ev.time, ev.seq, ev.label))

    def _arm(self, delay, action, then=None):
        label = f"t{len(self.events)}:{action[0]}"
        self.events.append(self.sim.schedule(
            delay, partial(self._act, action, then), label=label))

    def _act(self, action, then):
        if not self.sim._event_hook:
            self.fired.append((self.sim.now, None, action[0]))
        kind = action[0]
        if kind == "send":
            self.net.send(action[1], action[2], action[3])
        elif kind == "cancel":
            self.events[action[1] % len(self.events)].cancel()
        elif kind == "burst":
            for ev in [self.sim.schedule(100.0 + i, int) for i in range(action[1])]:
                ev.cancel()
        elif kind == "down":
            self.net.set_down(action[1])
        elif kind == "up":
            self.net.set_up(action[1])
        if then is not None:
            self._arm(then[0], then[1])

    def drive(self, runs, loop):
        """Each run in turn through *loop*: ``(returned or the error,
        fired so far, stats, pending, events processed, now)`` per run."""
        out = []
        for run in runs:
            kwargs = {}
            if run[0] == "until":
                kwargs["until"] = self.sim.now + run[1]
            elif run[0] == "done":
                stop = len(self.fired) + run[1]
                kwargs["done"] = lambda stop=stop: len(self.fired) >= stop
            try:
                result = loop(self.sim, **kwargs)
            except SimulationError as err:
                result = str(err)
            out.append((result, list(self.fired), copy.deepcopy(self.net.stats),
                        self.sim.pending, self.sim.events_processed,
                        self.sim.now))
        return out


@settings(max_examples=150, deadline=None)
@given(PLANS)
def test_the_inline_loop_fires_what_the_peek_pop_loop_fired(plan):
    """``Simulator.run`` against :func:`reference.reference_run` on drawn
    schedules: the same fired ``(time, seq, label)`` sequence, traffic
    counters, live count, event count and clock after every run, through
    ``until`` and ``done`` stops, budget trips, compaction and sends to
    down and unknown destinations."""
    assert _World(plan).drive(plan["runs"], Simulator.run) == \
        _World(plan).drive(plan["runs"], reference_run)


def test_the_drawn_schedules_reach_every_branch():
    """The plans above do compact mid-run, trip the budget and drop
    datagrams to down and unknown destinations (one fixed plan each)."""
    plan = {"timers": [(1.0, ("burst", 120), (0.5, ("send", 1, 2, 2))),
                       (1.2, ("send", 1, UNKNOWN, 0), None),
                       (1.1, ("down", 2), None)] + [(2.0, ("noop",), None)] * 30,
            "latencies": [0.3], "down": set(), "budget": 10, "hook": True,
            "runs": [("until", 1.3), ("all",), ("all",), ("all",), ("all",)]}
    world = _World(plan)
    heaps = []
    world.sim.set_event_hook(lambda ev: (world._seen(ev),
                                         heaps.append(heap_size(world.sim._queue))))
    runs = world.drive(plan["runs"], Simulator.run)
    stats = runs[-1][2]
    assert stats.dropped_unknown == 1 and stats.dropped_down == 1
    assert any("exceeded max_events=10" in str(r[0]) for r in runs)
    assert max(heaps) < 120 + 30  # the burst's tombstones were compacted away
    assert runs[-1][3] == 0 and runs[-1][4] == len(runs[-1][1])
