#!/usr/bin/env python3
"""Cost meter: counted work per layer, for claims a stopwatch cannot settle.

Usage::

    python tools/cost.py              # print each input's table
    python tools/cost.py --out DIR    # and write DIR/<input>.json

Runs two fixed inputs, each in a fresh build, and counts the work of its
measured phase under ``sys.setprofile``:

* **Python calls** -- every Python frame entered (a generator's resume
  counts), folded by the callee's source file into the layers
  ``benchmarks/perf`` folds its profile into (``perf_registry.layer_of``:
  ``sim.engine``, ``sim.network``, ``core.node``, ``storage``, ...);
* **C calls** -- every call into a C function, folded by the calling
  frame's layer, and by callee (``list.append``, ``_heapq.heappush``).

The inputs:

* ``quorum_mix`` -- a closed loop of 600 quorum ops, 70 % GET and 30 %
  PUT over 64 keys drawn uniformly, on ``Cluster(seed=7).build(500)``
  with the 3/2/2 store; the 64 keys are written before the phase;
* ``greedy_lookups`` -- 1 200 greedy lookups on
  ``TreePNetwork(seed=7).build(2000)``, the pairs drawn by
  ``lookup_pairs(default_rng(3), ids, 1200)``, in one
  ``run_lookup_batch``.

Counts are a function of the tree and the interpreter's minor version
only: the same at any ``PYTHONHASHSEED`` and on every run, while wall
time on a shared box swings by tens of percent.  ``benchmarks/cost/``
pins them for CPython 3.11, and tier-1 and CI diff a fresh run against
them exactly, so a change that moves the work re-pins them with
``--out benchmarks/cost`` in the same diff.  Stdlib only; the inputs
need NumPy, as the package does.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from typing import Callable, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "perf"))

from perf_registry import layer_of  # noqa: E402

#: This file's frames (the input drivers) are the benchmark's own layer.
_SELF = os.path.abspath(__file__)


def quorum_mix() -> Tuple[int, Callable[[], dict]]:
    """600 closed-loop quorum ops; returns ``(ops, measured phase)``."""
    import numpy as np

    from repro import Cluster, QuorumConfig

    cluster = Cluster(seed=7).build(500).with_storage(QuorumConfig(n=3, w=2, r=2))
    store, net = cluster.storage, cluster.net
    keys = [f"cost/{i:02d}" for i in range(64)]
    for i, key in enumerate(keys):
        store.put(key, -1 - i)
    rng = np.random.default_rng(11)
    key_of = [keys[i] for i in rng.integers(len(keys), size=600).tolist()]
    is_put = (rng.random(600) < 0.30).tolist()

    def phase() -> dict:
        put, get = store.put, store.get
        ok = 0
        for j, key in enumerate(key_of):
            ok += (put(key, j) if is_put[j] else get(key)).ok
        return {"ok": ok}

    return len(key_of), _with_kernel_counts(net, phase)


def greedy_lookups() -> Tuple[int, Callable[[], dict]]:
    """1 200 greedy lookups in one batch; returns ``(ops, measured phase)``."""
    import numpy as np

    from repro import TreePNetwork
    from repro.workloads.lookups import lookup_pairs

    net = TreePNetwork(seed=7)
    net.build(2000)
    pairs = lookup_pairs(np.random.default_rng(3), net.ids, 1200)

    def phase() -> dict:
        return {"found": sum(r.found for r in net.run_lookup_batch(pairs, "G"))}

    return len(pairs), _with_kernel_counts(net, phase)


def _with_kernel_counts(net, phase: Callable[[], dict]) -> Callable[[], dict]:
    """*phase*, reporting the events it fired and the datagrams it sent."""
    def measured() -> dict:
        events, sent = net.sim.events_processed, net.network.stats.sent
        outcome = phase()
        outcome["events"] = net.sim.events_processed - events
        outcome["datagrams"] = net.network.stats.sent - sent
        return outcome

    return measured


INPUTS: Dict[str, Callable[[], Tuple[int, Callable[[], dict]]]] = {
    "quorum_mix": quorum_mix,
    "greedy_lookups": greedy_lookups,
}


def _layer(path: str) -> str:
    if os.path.abspath(path) == _SELF:
        return "bench"
    layer = layer_of(path)
    if layer is None:
        raise SystemExit(f"cost: no layer for {path}")
    return layer


def count(phase: Callable[[], dict]):
    """Run *phase* under the profile hook: ``(outcome, Python calls per
    code object, C calls per (caller code, callee name))``."""
    py: Counter = Counter()
    c: Counter = Counter()

    def hook(frame, event, arg) -> None:
        if event == "call":
            py[frame.f_code] += 1
        elif event == "c_call":
            module = getattr(arg, "__module__", None)
            name = arg.__qualname__
            c[frame.f_code, f"{module}.{name}" if module else name] += 1

    sys.setprofile(hook)
    try:
        outcome = phase()
    finally:
        sys.setprofile(None)
    return outcome, py, c


def measure(name: str) -> Tuple[dict, List[Tuple[int, str]]]:
    """One input's pinned record, and its Python call counts per function
    (``(count, "layer file:line qualname")``, most first) for the table."""
    ops, phase = INPUTS[name]()
    outcome, py, c = count(phase)
    py_layers: Counter = Counter()
    functions: List[Tuple[int, str]] = []
    for code, n in py.items():
        layer = _layer(code.co_filename)
        py_layers[layer] += n
        where = os.path.relpath(code.co_filename, ROOT)
        functions.append((n, f"{layer:<18} {where}:{code.co_firstlineno} "
                             f"{code.co_qualname}"))
    c_layers: Counter = Counter()
    callees: Counter = Counter()
    for (code, callee), n in c.items():
        c_layers[_layer(code.co_filename)] += n
        callees[callee] += n
    functions.sort(key=lambda item: (-item[0], item[1]))
    py_total, c_total = sum(py_layers.values()), sum(c_layers.values())
    record = {
        "input": name,
        "ops": ops,
        "outcome": outcome,
        "python_calls": {
            "total": py_total,
            "per_op": round(py_total / ops, 2),
            "by_layer": dict(sorted(py_layers.items())),
        },
        "c_calls": {
            "total": c_total,
            "per_op": round(c_total / ops, 2),
            "by_layer": dict(sorted(c_layers.items())),
            "by_callee": dict(sorted(callees.items())),
        },
    }
    return record, functions


def render(record: dict, functions: List[Tuple[int, str]], top: int = 15) -> str:
    ops = record["ops"]
    py, c = record["python_calls"], record["c_calls"]
    lines = [f"== {record['input']}: {ops} ops, "
             + ", ".join(f"{k} {v}" for k, v in record["outcome"].items()),
             f"{'layer':<18} {'py calls':>10} {'/op':>8} {'C calls':>10} {'/op':>8}"]
    for layer in sorted(set(py["by_layer"]) | set(c["by_layer"])):
        p, q = py["by_layer"].get(layer, 0), c["by_layer"].get(layer, 0)
        lines.append(f"{layer:<18} {p:>10} {p / ops:>8.2f} {q:>10} {q / ops:>8.2f}")
    lines.append(f"{'total':<18} {py['total']:>10} {py['per_op']:>8.2f} "
                 f"{c['total']:>10} {c['per_op']:>8.2f}")
    lines.append(f"-- top {top} Python functions (calls, layer, site)")
    lines += [f"{n:>10}  {site}" for n, site in functions[:top]]
    lines.append(f"-- top {top} C callees")
    ranked = sorted(c["by_callee"].items(), key=lambda kv: (-kv[1], kv[0]))
    lines += [f"{n:>10}  {callee}" for callee, n in ranked[:top]]
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if argv and (len(argv) != 2 or argv[0] != "--out"):
        print("usage: python tools/cost.py [--out DIR]", file=sys.stderr)
        return 2
    out = argv[1] if argv else None
    if out is not None:
        os.makedirs(out, exist_ok=True)
    for name in INPUTS:
        record, functions = measure(name)
        print(render(record, functions))
        if out is not None:
            with open(os.path.join(out, f"{name}.json"), "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
