"""Named, seeded random substreams.

Every stochastic component (latency model, capacity sampler, failure
schedule, workload generator, election countdown noise…) draws from its own
named substream derived from a single experiment seed.  This gives two
properties the experiments rely on:

* **Reproducibility** — a run is a pure function of its seed.
* **Isolation** — adding draws to one component never perturbs another
  (e.g. enabling tracing does not change which nodes fail).

Substreams are ``numpy.random.Generator`` instances keyed by name via
``SeedSequence.spawn``-style derivation (we hash the name into the entropy).
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


def _name_entropy(name: str) -> int:
    """Stable 128-bit entropy derived from a stream name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


class RngRegistry:
    """Factory of named ``numpy`` generators sharing one root seed.

    >>> r1, r2 = RngRegistry(7), RngRegistry(7)
    >>> float(r1.get("latency").random()) == float(r2.get("latency").random())
    True
    >>> float(r1.get("a").random()) == float(r1.get("b").random())
    False
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        Repeated calls return the *same* generator object, so draws within a
        stream are sequential.
        """
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence([self.seed, _name_entropy(name)])
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen
