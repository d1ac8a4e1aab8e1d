#!/usr/bin/env python3
"""Identity check between two directories of bench envelopes, or two files.

Usage::

    python tools/diff_envelopes.py OLD_DIR NEW_DIR
    python tools/diff_envelopes.py OLD.json NEW.json

A ``repro.bench`` envelope is a pure function of (scenario, seed, params,
smoke), so two runs of the same tree must write the same JSON.  This
compares every ``bench_*.json`` the two directories hold (or the two files
given, as one pair whatever their names) and prints, per file that differs,
each metric, check or other field that moved as ``name: old -> new``.  A
file present on one side only counts as a difference.  Exit code 1 when
anything differs, 0 when every pair is identical, 2 with the usage line
for any other argument shape.  Stdlib only — no ``PYTHONPATH`` needed.

Two uses in CI: the golden gate (a fresh full + smoke run against the
committed ``benchmarks/out/``) and the ``PYTHONHASHSEED`` gate — the
smoke suite run under two hash seeds must agree, which is what makes the
repo's one justified RPR102 suppression (int-set iteration order in
``core/lookup.py``) a test instead of an argument.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List


USAGE = ("usage: python tools/diff_envelopes.py OLD_DIR NEW_DIR\n"
         "       python tools/diff_envelopes.py OLD.json NEW.json")


def _read(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def load_envelopes(directory: str) -> Dict[str, Dict[str, Any]]:
    """``{file name: parsed JSON}`` of every envelope in *directory*."""
    return {name: _read(os.path.join(directory, name))
            for name in sorted(os.listdir(directory))
            if name.startswith("bench_") and name.endswith(".json")}


def _keyed(value: Any) -> Any:
    """An envelope's ``checks`` list as ``{name: "ok|FAIL (detail)"}``, so
    it diffs per check like ``metrics`` does.  Anything else unchanged."""
    if not (isinstance(value, list) and value
            and all(isinstance(c, dict) and "name" in c for c in value)):
        return value
    return {c["name"]: f"{'ok' if c.get('passed') else 'FAIL'} "
                       f"({c.get('detail')})"
            for c in value}


def differing_fields(old: Any, new: Any, path: str = "") -> List[str]:
    """``name: old -> new`` for every leaf whose value differs between two
    envelopes: ``metrics.<name>``, ``checks.<name>`` (verdict and detail)
    and any other field.  A section held by one side only (an ``obs``
    sidecar) is named, never dumped."""
    old, new = _keyed(old), _keyed(new)
    if old == new:
        return []
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(old) | set(new)):
            out += differing_fields(old.get(key), new.get(key),
                                    f"{path}.{key}" if path else key)
        return out
    if isinstance(old, dict) or isinstance(new, dict):
        return [f"{path}: only in {'OLD' if isinstance(old, dict) else 'NEW'}"]
    return [f"{path}: {old} -> {new}"]


def main(argv: List[str]) -> int:
    if len(argv) == 2 and all(map(os.path.isdir, argv)):
        old, new = load_envelopes(argv[0]), load_envelopes(argv[1])
    elif len(argv) == 2 and all(map(os.path.isfile, argv)):
        name = os.path.basename(argv[1])
        old, new = {name: _read(argv[0])}, {name: _read(argv[1])}
    else:
        print(USAGE, file=sys.stderr)
        return 2
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
