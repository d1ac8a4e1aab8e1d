"""Run every ``>>>`` example in ``src/repro``.

The modules are found by scanning the source for ``>>>``, so an example
added to any module runs here without listing it.
"""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _modules_with_examples() -> list[str]:
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if ">>>" in path.read_text(encoding="utf-8"):
            parts = path.relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            names.append(".".join(parts))
    return names


MODULES = _modules_with_examples()


def test_the_scan_finds_the_examples():
    assert "repro.sim.rng" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name), report=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"
