"""Node-level protocol events in the obs trace: ``node.drop``,
``lookup.discard`` and ``election.promoted`` / ``.won`` / ``.demoted``.

These are the five sites the removed ``sim`` tracer used to cover; they
now land in the same event stream as everything else, and a run without
a hub attached is bit-identical to the same run with one.
"""

from repro import Cluster, TreePConfig

TTL_MAX = 2


def events(hub, category):
    """``(node, t, rid, value)`` rows of one event category."""
    cols = hub.events.columns()
    mask = cols["cat"] == hub.strings.get_code(category)
    return [(int(n), float(t), int(r), float(v)) for n, t, r, v in zip(
        cols["node"][mask], cols["t"][mask], cols["rid"][mask],
        cols["value"][mask])]


def _lookups(observed):
    """Lookups under a TTL too small for the overlay: some get discarded."""
    cluster = Cluster(config=TreePConfig.paper_case1(ttl_max=TTL_MAX),
                      seed=17).build(96)
    if observed:
        cluster.with_observability()
    origin = cluster.ids[0]
    results = [cluster.lookup_sync(origin, t) for t in cluster.ids[1::4]]
    return cluster, results


def test_discarded_lookup_records_one_event_with_rid_and_ttl():
    cluster, results = _lookups(observed=True)
    discards = events(cluster.obs, "lookup.discard")
    timed_out = [r for r in results if r.timed_out]
    assert timed_out, "TTL_MAX must be small enough to discard some lookup"
    assert len(discards) == cluster.obs.category_counts()["lookup.discard"]
    # Exactly one event per silently dropped request, none for the rest.
    assert sorted(rid for _, _, rid, _ in discards) == sorted(
        r.request_id for r in timed_out)
    for node, _, _, ttl in discards:
        assert ttl == TTL_MAX + 1
        assert node in cluster.net.nodes


def test_unknown_payload_records_node_drop():
    class Unrouted:
        """A payload type no handler claims."""

    cluster = Cluster(seed=3).build(16).with_observability()
    src, dst = cluster.ids[0], cluster.ids[1]
    cluster.net.nodes[src].send(dst, Unrouted())
    cluster.run_for(1.0)
    [(node, t, rid, _)] = events(cluster.obs, "node.drop")
    assert node == dst and rid == 0 and 0.0 < t <= 1.0


def _churn(observed):
    """Joins crowd one cell (promotions), crashes orphan subtrees
    (elections), thinned parents abdicate (demotions)."""
    cluster = Cluster(config=TreePConfig.paper_case1(), seed=5).build(64)
    if observed:
        cluster.with_observability()
    cluster.start_maintenance()
    cluster.run_for(30.0)
    base, extent = cluster.ids[10], cluster.config.space.extent
    for d in range(1, 9):
        ident = (base + d) % extent
        if ident not in cluster.net.nodes:
            cluster.join_node(ident, via=base)
    cluster.fail_nodes(cluster.ids[20:28])
    cluster.run_for(60.0)
    cluster.stop_maintenance()
    levels = {i: node.max_level for i, node in cluster.net.nodes.items()}
    return cluster, (levels, cluster.sim.now, cluster.sim.events_processed)


def test_election_events_under_maintenance_churn():
    cluster, _ = _churn(observed=True)
    for category in ("election.promoted", "election.won", "election.demoted"):
        rows = events(cluster.obs, category)
        assert rows, f"churn produced no {category} event"
        for node, _, _, level in rows:
            assert node in cluster.net.nodes
            assert level >= 1 and level == int(level)


def test_results_identical_without_a_hub():
    """The untraced path is an attribute load and an identity check: it
    records nothing and changes nothing."""
    _, observed = _lookups(observed=True)
    bare_cluster, bare = _lookups(observed=False)
    assert bare_cluster.net.obs is None
    assert bare == observed
    assert _churn(observed=False)[1] == _churn(observed=True)[1]
