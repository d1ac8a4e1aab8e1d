"""Per-link latency models for the simulated datagram network.

The paper's TreeP is a UDP-based overlay; lookup correctness must not depend
on delivery timing, but maintenance (keep-alives, countdown elections) does.
All models draw from a dedicated RNG stream so enabling/disabling other
randomness never changes message timing.
"""

from __future__ import annotations

import abc

import numpy as np


class LatencyModel(abc.ABC):
    """Samples one-way datagram latency (seconds) for a (src, dst) pair."""

    @abc.abstractmethod
    def sample(self, src: int, dst: int) -> float:
        """Latency for one datagram from *src* to *dst*; must be > 0."""


class ConstantLatency(LatencyModel):
    """Every datagram takes exactly *value* seconds.

    Useful in unit tests where deterministic arrival order matters.
    """

    def __init__(self, value: float = 0.01) -> None:
        if not value > 0:
            raise ValueError(f"latency must be > 0, got {value}")
        self.value = float(value)

    def sample(self, src: int, dst: int) -> float:
        return self.value


class UniformLatency(LatencyModel):
    """Latency uniform in ``[low, high]`` — a crude WAN model.

    Samples are drawn from the generator in blocks: NumPy fills an array
    with exactly the same per-element doubles (same bit-generator stream,
    same ``low + (high - low) * u`` transform) as repeated scalar
    ``uniform`` calls, so blocked and scalar sampling produce identical
    sequences while amortising the per-call NumPy dispatch overhead —
    which is material when every datagram of a 10k-node run samples once.
    """

    _BLOCK = 512

    def __init__(self, rng: np.random.Generator, low: float = 0.005, high: float = 0.05) -> None:
        if not 0 < low <= high:
            raise ValueError(f"need 0 < low <= high, got {low}, {high}")
        self.rng = rng
        self.low = float(low)
        self.high = float(high)
        self._block: list = []
        self._next = 0

    def sample(self, src: int, dst: int) -> float:
        i = self._next
        block = self._block
        if i >= len(block):
            block = self._block = self.rng.uniform(
                self.low, self.high, size=self._BLOCK).tolist()
            i = 0
        self._next = i + 1
        return block[i]
