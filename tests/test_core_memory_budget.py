"""A per-node memory budget, so PR 22's "lighter nodes" cannot leak away.

``tracemalloc`` around the two phases that decide a run's footprint —
``Cluster(seed=9).build(N)`` and 1.2 greedy lookups per node on it — divided
by N.  Figures (CPython 3.11.7, NumPy 2.4, this file run as a script)::

    PYTHONPATH=src python tests/test_core_memory_budget.py 2000 10000

                     built B/node    lookups +B/node
    parent 02803cf   5 535 / 5 257   1 625 / 1 771      (N = 2 000 / 10 000)
    PR 22            5 383 / 5 112     767 /   756
    v1.24.0          4 401 / 4 123     654 /   628

The first built drop is the ``RoutingTable`` instance ``__dict__`` and the
two un-slotted per-node managers; the first lookup drop is the greedy router
keeping one derived view per table variant instead of a triples list *and*
a NumPy payload with private scratch arrays inside a per-table ``cache``
dict.  The v1.24.0 built drop is allocation on first write: unwritten role
sets and ``level_tables`` are shared sentinels, and a node builds its
election and demotion managers and its handler dict only when it uses them;
its lookup drop is views that keep ``(id, level)`` pairs or NumPy columns
but no list of :class:`~repro.core.routing_table.Entry` references.  The
budgets are the N = 2 000 figures + 5 %.  Allocation sizes are interpreter-
specific, hence the same 3.11-only gate as the golden diff in
``tests/test_sim_scale.py``.

A third figure keeps converged-mode repair honest: everything traced since
before the build, per *live* node, after one 6 % crash burst and
``apply_failure_step`` — so the round-long gossip snapshot cannot outlive
the step — and the number of unreachable objects the step left for the
cyclic collector, which must be 0 for pausing it to cost nothing (same
command; a 64-node build + step first pays the one-off imports and caches,
≈ 1 MB, so the figure does not depend on what ran before it)::

                     after repair B/live node    unreachable
    parent 9e8b36e   5 374 / 5 408               0 / 0      (N = 2 000 / 5 000)
    PR 23            5 373 / 5 409               0 / 0
    v1.24.0          4 543 / 4 580               0 / 0
"""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from repro import Cluster
from repro.core.repair import apply_failure_step
from repro.core.routing_table import _NO_LEVELS, _NO_ROLE, Entry

NODES = 2000
BUILT_BYTES_PER_NODE = 4401 * 1.05
LOOKUP_BYTES_PER_NODE = 654 * 1.05
REPAIRED_BYTES_PER_LIVE_NODE = 4543 * 1.05


def measure(n):
    """``(cluster, built bytes/node, lookup-phase bytes/node)``."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cluster = Cluster(seed=9).build(n)
        gc.collect()
        built = tracemalloc.get_traced_memory()[0] - base
        net = cluster.net
        picks = np.random.default_rng(9).integers(0, n, size=(int(1.2 * n), 2))
        pairs = [(net.ids[a], net.ids[b]) for a, b in picks if a != b]
        for k in range(0, len(pairs), 240):
            net.run_lookup_batch(pairs[k:k + 240], "G")
        gc.collect()
        after = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return cluster, built / n, (after - built) / n


def measure_repair(n):
    """``(bytes per live node after a 6 % burst + one repair step, objects
    that step left unreachable)``."""
    warm = Cluster(seed=9).build(64).net  # one-off imports and caches
    apply_failure_step(warm, ())
    del warm
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        net = Cluster(seed=9).build(n).net
        victims = [int(v) for v in np.random.default_rng(9).choice(
            net.ids, int(0.06 * n), replace=False)]
        net.fail_nodes(victims)
        gc.collect()
        apply_failure_step(net, victims)
        unreachable = gc.collect()
        after = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return after / (n - len(victims)), unreachable


_ONLY_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="allocation sizes are interpreter-specific; the budget is "
           "recorded on CPython 3.11")


@_ONLY_311
def test_per_node_bytes_stay_within_budget():
    cluster, built, lookups = measure(NODES)
    assert built <= BUILT_BYTES_PER_NODE, f"{built:.0f} B/node after build"
    assert lookups <= LOOKUP_BYTES_PER_NODE, f"+{lookups:.0f} B/node after lookups"

    # One structure per variant: a view is the pairs list or the NumPy
    # columns, never both, and no view holds an Entry — and nothing else
    # hangs derived state on a table.
    visited = 0
    for node in cluster.net.nodes.values():
        table = node.table
        assert not hasattr(table, "__dict__")
        for view in (table._view_full, table._view_l0):
            if view is None:
                continue
            visited += 1
            assert (view.pairs is None) != (view.ids is None)
            held = view.pairs or ()
            assert not any(isinstance(x, Entry) for pair in held for x in pair)
            assert not any(isinstance(x, Entry) for x in view)
    assert visited > NODES // 2


_ROLES = ("level0", "level0_indirect", "children", "neighbour_children",
          "superiors")


def test_a_built_overlay_allocates_only_the_state_it_holds():
    """The exact, interpreter-independent half of the budget: it counts
    objects, not bytes.  After a build every empty role set and every empty
    ``level_tables`` is the one shared sentinel, and no node has built the
    election or demotion manager it has not used."""
    net = Cluster(seed=9).build(NODES).net
    shared = 0
    for node in net.nodes.values():
        table = node.table
        for role in _ROLES:
            ids = getattr(table, role)
            assert ids or ids is _NO_ROLE, (node.ident, role)
            shared += ids is _NO_ROLE
        assert table.level_tables or table.level_tables is _NO_LEVELS
        assert all(table.level_tables.values())
        assert "elections" not in vars(node) and "demotions" not in vars(node)
    assert shared > NODES  # every level0_indirect at least


@_ONLY_311
def test_a_repair_step_leaves_no_snapshot_and_no_cyclic_garbage():
    repaired, unreachable = measure_repair(NODES)
    assert repaired <= REPAIRED_BYTES_PER_LIVE_NODE, f"{repaired:.0f} B/live node"
    # The step runs with the collector paused; that is free only while
    # repair makes nothing the collector alone could free.
    assert unreachable == 0


if __name__ == "__main__":
    for size in (int(a) for a in sys.argv[1:] or [NODES]):
        _, built_bytes, lookup_bytes = measure(size)
        repaired_bytes, left = measure_repair(size)
        print(f"N={size}: built {built_bytes:.0f} B/node, "
              f"lookups +{lookup_bytes:.0f} B/node, after repair "
              f"{repaired_bytes:.0f} B/live node ({left} unreachable)")
