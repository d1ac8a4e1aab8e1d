"""``repro.lint`` — the AST-based invariant analyzer (``python -m repro.lint``).

The reproduction's correctness rests on invariants the test suite can only
spot-check: fixed-seed determinism, RNG/schedule-neutral observability,
context-owned handler/timer cleanup, ``__slots__`` on hot-path records
and the package layering.  This package turns each of those into a
machine-checked rule with a stable code:

========  ==============================================================
RPR1xx    determinism — no wall clock / global or unseeded RNG / set order
RPR2xx    layering — every import edge vs ``layers.toml``
RPR3xx    lifecycle — paired handler/timer cleanup outside ServiceContext
RPR4xx    perf/obs hygiene — ``__slots__`` records, nil-guarded obs
========  ==============================================================

``layers.toml`` is the one statement of the layer graph and of every
rule's scope.  Suppress a finding per line with a *justified* comment::

    rng = random.Random(node.ident)  # repro-lint: disable=RPR101 per-node phase, seeded by ident

A bare ``disable=`` without justification earns RPR001 and the original
violation stands.  See ``docs/static-analysis.md`` for the full catalogue
and the CLI reference.

Layer contract: this package *owns invariant enforcement*; it is
stdlib-only, so a bug in the code it lints can never take it down.  Its
imports are declared by ``[package.lint]`` in ``repro/lint/layers.toml``
and checked by ``python -m repro.lint`` (RPR201).
"""

from repro.lint.engine import (
    FileContext,
    LintEngine,
    LintReport,
    ProjectContext,
    Violation,
)
from repro.lint.layers import (
    LayerMap,
    LayerPolicy,
    default_layers_path,
    load_layer_map,
)
from repro.lint.rules import REGISTRY, Rule, all_rules, rule

__all__ = [
    "FileContext",
    "LayerMap",
    "LayerPolicy",
    "LintEngine",
    "LintReport",
    "ProjectContext",
    "REGISTRY",
    "Rule",
    "Violation",
    "all_rules",
    "default_layers_path",
    "load_layer_map",
    "rule",
]
