"""The cost meter's counts are pinned like a golden.

``tools/cost.py`` counts the Python and C calls of two fixed inputs per
layer; ``benchmarks/cost/<input>.json`` holds them for CPython 3.11.  A
fresh run must reproduce every file byte for byte, under two
``PYTHONHASHSEED`` values: counts, unlike wall time, do not vary, so a
change that moves them re-pins them in the same diff
(``python tools/cost.py --out benchmarks/cost``) and cites the delta.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "benchmarks" / "cost"

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned for CPython 3.11")


@pytest.fixture(scope="module", params=["0", "1"], ids=lambda s: f"hashseed{s}")
def fresh(request, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp(f"cost{request.param}")
    env = dict(os.environ, PYTHONHASHSEED=request.param)
    subprocess.run([sys.executable, str(ROOT / "tools" / "cost.py"), "--out", str(out)],
                   check=True, env=env, stdout=subprocess.DEVNULL, timeout=300)
    return out


def test_pinned_inputs_are_the_meters_inputs(fresh):
    assert sorted(p.name for p in fresh.iterdir()) == \
        sorted(p.name for p in PINNED.glob("*.json")) == \
        ["greedy_lookups.json", "quorum_mix.json"]


@pytest.mark.parametrize("name", ["quorum_mix", "greedy_lookups"])
def test_counts_match_the_pinned_file(fresh, name):
    pinned = (PINNED / f"{name}.json").read_text()
    assert (fresh / f"{name}.json").read_text() == pinned
