"""The rule registry: stable ``RPRxxx`` codes -> checker functions.

Code families
  RPR1xx  determinism (wall clock, global or unseeded RNG, set-order decisions)
  RPR2xx  layering (import edges vs the layer map)
  RPR3xx  lifecycle hygiene (handler/timer pairing)
  RPR4xx  performance / observability hygiene (__slots__, nil-guarded obs)

Importing this package populates :data:`REGISTRY`; rules register
themselves with the :func:`rule` decorator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator

from repro.lint.engine import FileContext, ProjectContext, Violation

__all__ = ["REGISTRY", "Rule", "all_rules", "rule"]


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    summary: str
    check: Callable[[FileContext, ProjectContext], Iterator[Violation]]


REGISTRY: Dict[str, Rule] = {}


def rule(code: str, name: str, summary: str):
    def decorate(fn):
        if code in REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        REGISTRY[code] = Rule(code=code, name=name, summary=summary, check=fn)
        return fn
    return decorate


def all_rules() -> Dict[str, Rule]:
    """Import every rule module (idempotent) and return the registry."""
    from repro.lint.rules import determinism, hygiene, layering, lifecycle  # noqa: F401
    return REGISTRY
