"""Comparator overlays on the same simulated substrate.

The paper positions TreeP against the structured-DHT family (Chord, CAN,
Pastry, …) and the unstructured flooders (Gnutella/Kazaa) in §I-II.  To make
those comparisons runnable, this package implements:

* :mod:`repro.baselines.chord` — Chord with finger tables and successor
  lists and message-driven lookups.
* :mod:`repro.baselines.random_graph` — a degree-``k`` random overlay.
* :mod:`repro.baselines.flood` — Gnutella-style TTL-limited flooding on the
  random overlay.
* :mod:`repro.baselines.harness` — the one deployment harness both share
  (seeded substreams, simulator and fabric, ID draw, failures, lookup
  batch).

Every node issues its lookups through TreeP's own origin side
(:class:`repro.core.node.LookupClient`: request ids, timeout, one result
per lookup), and everything runs on :mod:`repro.sim`, so hop counts,
message counts and failure behaviour are directly comparable with TreeP's.
"""

from repro.baselines.chord import ChordNetwork
from repro.baselines.flood import FloodNetwork
from repro.baselines.random_graph import random_overlay

__all__ = ["ChordNetwork", "FloodNetwork", "random_overlay"]
