"""The cost meter's counts are pinned like a golden.

``tools/cost.py`` counts the Python and C calls of three fixed inputs per
layer; ``benchmarks/cost/<input>.json`` holds them for CPython 3.11.  A
fresh run must reproduce every file byte for byte, under two
``PYTHONHASHSEED`` values: counts, unlike wall time, do not vary, so a
change that moves them re-pins them in the same diff
(``python tools/cost.py --out benchmarks/cost``) and cites the delta.
"""

from __future__ import annotations

import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "benchmarks" / "cost"

_ONLY_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned for CPython 3.11")
NAMES = ["greedy_lookups", "quorum_mix", "repair_bursts"]


@pytest.fixture(scope="module", params=["0", "1"], ids=lambda s: f"hashseed{s}")
def fresh(request, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp(f"cost{request.param}")
    env = dict(os.environ, PYTHONHASHSEED=request.param)
    subprocess.run([sys.executable, str(ROOT / "tools" / "cost.py"), "--out", str(out)],
                   check=True, env=env, stdout=subprocess.DEVNULL, timeout=300)
    return out


@_ONLY_311
def test_pinned_inputs_are_the_meters_inputs(fresh):
    assert sorted(p.name for p in fresh.iterdir()) == \
        sorted(p.name for p in PINNED.glob("*.json")) == \
        [f"{name}.json" for name in NAMES]


@_ONLY_311
@pytest.mark.parametrize("name", NAMES)
def test_counts_match_the_pinned_file(fresh, name):
    pinned = (PINNED / f"{name}.json").read_text()
    assert (fresh / f"{name}.json").read_text() == pinned


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: ``| head`` after its last line."""

    def write(self, text):
        raise BrokenPipeError


def test_out_writes_every_file_before_it_prints(monkeypatch, tmp_path):
    """A reader that closes the pipe at the first line cannot leave some
    pins rewritten and others stale: every input is measured and every
    file written before anything is printed."""
    spec = importlib.util.spec_from_file_location("cost", ROOT / "tools" / "cost.py")
    cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cost)

    def measure(name):
        calls = {"total": 1, "per_op": 1.0, "by_layer": {"bench": 1}}
        return ({"input": name, "ops": 1, "outcome": {},
                 "python_calls": calls, "c_calls": {**calls, "by_callee": {"len": 1}}},
                [(1, "bench stub")])

    monkeypatch.setattr(cost, "measure", measure)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    with pytest.raises(BrokenPipeError):
        cost.main(["--out", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{name}.json" for name in NAMES]
