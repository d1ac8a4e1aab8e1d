#!/usr/bin/env python3
"""Identity check between two directories of bench and campaign envelopes.

Usage::

    python tools/diff_envelopes.py OLD_DIR NEW_DIR

A ``repro.bench`` envelope is a pure function of (scenario, seed, params,
smoke), so two runs of the same tree must write the same JSON — and so
must two runs of one campaign spec, whatever ``--workers`` computed them.
This compares every ``bench_*.json`` and ``campaign_*.json`` the two
directories hold and prints, per file that differs, each metric, check or
other field that moved as ``name: old -> new`` (a campaign's moved
aggregate as ``points[<params>].metrics.<name>.<stat>: old -> new``).  A
file present on one side only counts as a difference.  Exit code 1 when
anything differs, 0 when every pair is identical.  Stdlib only — no
``PYTHONPATH`` needed.

Three uses in CI: the golden gate (a fresh full + smoke run against the
committed ``benchmarks/out/``), the ``PYTHONHASHSEED`` gate — the
smoke suite run under two hash seeds must agree, which is what makes the
repo's one justified RPR102 suppression (int-set iteration order in
``core/lookup.py``) a test instead of an argument — and the campaign
smoke, run with one worker and with two.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List


def load_envelopes(directory: str) -> Dict[str, Dict[str, Any]]:
    """``{file name: parsed JSON}`` of every envelope in *directory*."""
    envelopes = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith(("bench_", "campaign_")) and name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                envelopes[name] = json.load(fh)
    return envelopes


def _keyed(value: Any) -> Any:
    """An envelope's lists as dicts, so each diffs per member like
    ``metrics`` does: ``checks`` as ``{name: "ok|FAIL (detail)"}`` (a
    campaign's per-point check carries its failed seeds as the detail), a
    campaign's ``points`` as ``{[params]: point}`` and a point's embedded
    ``repetitions`` as ``{[seed=N]: envelope}``.  Anything else unchanged."""
    if not (isinstance(value, list) and value
            and all(isinstance(c, dict) for c in value)):
        return value
    if all("name" in c for c in value):
        return {c["name"]: f"{'ok' if c.get('passed') else 'FAIL'} "
                           f"({c.get('detail', c.get('failed_seeds'))})"
                for c in value}
    if all("repetitions" in c for c in value):
        return {"[" + ", ".join(f"{k}={v}" for k, v in
                                sorted(c.get("params", {}).items())) + "]": c
                for c in value}
    if all("seed" in c for c in value):
        return {f"[seed={c['seed']}]": c for c in value}
    return value


def differing_fields(old: Any, new: Any, path: str = "") -> List[str]:
    """``name: old -> new`` for every leaf whose value differs between two
    envelopes: ``metrics.<name>``, ``checks.<name>`` (verdict and detail),
    any other field, and inside a campaign
    ``points[<params>].metrics.<name>.<stat>``,
    ``points[<params>].checks.<name>`` and
    ``points[<params>].repetitions[seed=<N>].…``.  A point or repetition
    held by one side only is named, never dumped."""
    old, new = _keyed(old), _keyed(new)
    if old == new:
        return []
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(old) | set(new)):
            sep = "" if not path or key.startswith("[") else "."
            out += differing_fields(old.get(key), new.get(key),
                                    f"{path}{sep}{key}")
        return out
    if isinstance(old, dict) or isinstance(new, dict):
        return [f"{path}: only in {'OLD' if isinstance(old, dict) else 'NEW'}"]
    return [f"{path}: {old} -> {new}"]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/diff_envelopes.py OLD_DIR NEW_DIR",
              file=sys.stderr)
        return 2
    old, new = load_envelopes(argv[0]), load_envelopes(argv[1])
    differing = 0
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            print(f"{name}: only in {argv[1] if name in new else argv[0]}")
            differing += 1
        elif old[name] != new[name]:
            print(f"{name}:")
            for line in differing_fields(old[name], new[name]):
                print(f"  {line}")
            differing += 1
    total = len(set(old) | set(new))
    print(f"{total - differing}/{total} envelopes identical")
    return 1 if differing or not total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
