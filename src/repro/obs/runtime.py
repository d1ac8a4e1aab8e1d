"""Ambient trace capture — how ``--trace-out`` reaches scenario-internal
networks.

Bench scenarios construct their own :class:`~repro.core.treep.TreePNetwork`
objects (often several, sweeping N), so the runner cannot hand them a hub.
Instead it activates a :class:`TraceCapture` for the duration of the
scenario; every network constructed while one is active asks
:func:`ambient_hub` for a fresh hub and becomes one *run* in the written
store.  With no capture active (the default, including every test and
every untraced bench run) :func:`ambient_hub` is a single module-global
``None`` check at network construction — zero per-event cost.

The explicit path — ``Cluster(...).with_observability()`` — attaches an
:class:`~repro.obs.service.Observability` service, which adopts the
network's ambient hub when it has one, so a network is one run either way.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.obs.hub import ObsHub
from repro.obs.store import write_store

__all__ = ["TraceCapture", "capture", "ambient_hub"]

_ACTIVE: Optional["TraceCapture"] = None


class TraceCapture:
    """Collects one hub per network constructed while active.

    Its row totals (spans, events, per-category counts) are what the
    bench runner reports in a traced envelope's ``obs`` field; anything
    finer is read from the written store."""

    def __init__(self) -> None:
        self.hubs: List[ObsHub] = []

    def new_hub(self) -> ObsHub:
        hub = ObsHub()
        self.hubs.append(hub)
        return hub

    def runs(self) -> Dict[str, ObsHub]:
        """``{run name: hub}`` in network-construction order."""
        return {f"run-{i:03d}": hub for i, hub in enumerate(self.hubs)}

    def write(self, path: str,
              meta_extra: Optional[Mapping[str, Any]] = None) -> str:
        """Write every captured run to *path* (see
        :func:`~repro.obs.store.write_store`)."""
        return write_store(path, self.runs(), meta_extra=meta_extra)

    # ------------------------------------------------------------ summaries
    def category_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for hub in self.hubs:
            for cat, n in hub.category_counts().items():
                out[cat] = out.get(cat, 0) + n
        return out

    def span_count(self) -> int:
        return sum(hub.spans.rows + hub.open_span_count() for hub in self.hubs)

    def event_count(self) -> int:
        return sum(hub.events.rows for hub in self.hubs)


@contextmanager
def capture() -> Iterator[TraceCapture]:
    """Activate an ambient capture for the ``with`` body (re-entrant: an
    inner capture shadows, then restores, the outer one)."""
    global _ACTIVE
    prev = _ACTIVE
    cap = TraceCapture()
    _ACTIVE = cap
    try:
        yield cap
    finally:
        _ACTIVE = prev


def ambient_hub() -> Optional[ObsHub]:
    """A fresh hub from the active capture, or ``None`` (the usual case).
    Called once per :class:`~repro.core.treep.TreePNetwork` construction."""
    return _ACTIVE.new_hub() if _ACTIVE is not None else None
