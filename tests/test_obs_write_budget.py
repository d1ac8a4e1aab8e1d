"""A memory budget for writing a trace store.

``write_store`` streams every column chunk by chunk, so beyond the hub's
own buffers it holds one remapped ``cat`` chunk, the stage's flush and the
metadata blob.  The whole-column writer it replaced concatenated every
column beside the hub's chunks, and ``np.savez_compressed`` copied each
column again.  Figures for the ``lookup_observed`` hub size (13 200 lookups
of 11 hops: 145 200 events and 13 200 spans; CPython 3.11.7, NumPy 2.4,
this file run as a script)::

    PYTHONPATH=src python tests/test_obs_write_budget.py

    whole-column writer   7.65 MiB traced over the hub's buffers
    chunk-streaming       0.32 MiB

The budget is 2 MiB.  Allocation sizes are interpreter-specific, hence the
3.11-only gate of ``tests/test_core_memory_budget.py``.
"""

import os
import sys
import tempfile
import tracemalloc

import pytest

from repro.obs.hub import ObsHub
from repro.obs.store import write_store

LOOKUPS, HOPS = 13_200, 11
BUDGET = 2 * 2**20


def _hub() -> ObsHub:
    hub = ObsHub()
    for rid in range(LOOKUPS):
        t = float(rid)
        hub.lookup_begin(rid, rid % 997, t)
        for hop in range(HOPS):
            hub.lookup_hop(rid, (rid + hop) % 997, t + hop / 16, 32 - hop)
        hub.lookup_end(rid, t + 0.75, found=rid % 5 != 0, hops=HOPS)
    return hub


def write_peak(path: str) -> int:
    """Peak bytes traced while ``write_store`` writes one such hub."""
    hub = _hub()
    tracemalloc.start()
    try:
        write_store(path, {"run-000": hub})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="allocation sizes are interpreter-specific")
def test_write_store_streams_within_budget(tmp_path):
    assert write_peak(str(tmp_path / "t.npz")) <= BUDGET


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        peak = write_peak(os.path.join(tmp, "t.npz"))
    print(f"write_store traced peak over the hub's buffers: "
          f"{peak / 2**20:.2f} MiB (budget {BUDGET / 2**20:.0f} MiB)")
