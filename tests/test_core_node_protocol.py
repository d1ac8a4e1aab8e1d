"""Protocol-level tests: joins, elections, demotion, keep-alives, lookups
as real datagrams on small networks."""

import numpy as np
import pytest

from reference import ConstantLatency
from repro import TreePConfig, TreePNetwork
from repro.core.capacity import NodeCapacity
from repro.core.messages import Hello
from repro.core.node import TreePNode
from repro.sim.engine import Simulator
from repro.sim.network import Network


def tiny_net(n=3, **cfg_overrides):
    """n standalone nodes on a network, no hierarchy built."""
    cfg = TreePConfig.paper_case1(**cfg_overrides)
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    nodes = []
    for i in range(n):
        node = TreePNode(1000 * (i + 1), NodeCapacity(), cfg)
        net.register(node)
        nodes.append(node)
    return sim, net, nodes


class TestHello:
    def test_hello_exchange_populates_entries(self):
        sim, net, (a, b, _) = tiny_net()
        a.send(b.ident, Hello(a.max_level, a.score, a.nc))
        sim.run()
        assert b.table.get(a.ident) is not None
        assert a.table.get(b.ident) is not None  # via the ack

    def test_unknown_message_ignored(self):
        sim, net, (a, b, _) = tiny_net()
        a.send(b.ident, object())
        sim.run()  # no crash


class TestLookupProtocol:
    def test_lookup_on_built_network(self, fresh_net):
        ids = fresh_net.ids
        res = fresh_net.lookup_sync(ids[0], ids[-1], "G")
        assert res.found
        assert res.hops <= 2 * fresh_net.layout.height + 4

    def test_lookup_to_self(self, fresh_net):
        res = fresh_net.lookup_sync(fresh_net.ids[0], fresh_net.ids[0], "G")
        assert res.found and res.hops == 0

    def test_lookup_timeout_on_black_hole(self):
        """Forwarding into a dead node (stale entry) times out."""
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=3)
        net.build(32)
        origin = net.ids[0]
        # Kill everything except the origin but leave tables stale.
        for i in net.ids[1:]:
            net.network.set_down(i)
        known = set(net.nodes[origin].table.all_known())
        target = next(i for i in net.ids[1:] if i not in known)
        res = net.lookup_sync(origin, target, "G")
        assert not res.found
        assert res.timed_out or res.hops == 0

    def test_replies_come_back_to_origin(self, fresh_net):
        ids = fresh_net.ids
        pend = fresh_net.nodes[ids[3]].issue_lookup(ids[40], "NG")
        fresh_net.sim.run()
        assert pend.result is not None
        assert pend.result.origin == ids[3]
        assert pend.result.target == ids[40]

    def test_on_done_callback(self, fresh_net):
        got = []
        node = fresh_net.nodes[fresh_net.ids[0]]
        node.issue_lookup(fresh_net.ids[10], "G", on_done=got.append)
        fresh_net.sim.run()
        assert len(got) == 1 and got[0].found

    def test_results_accumulate(self, fresh_net):
        """Results live on the handles the caller holds; the node keeps no
        log of them."""
        node = fresh_net.nodes[fresh_net.ids[0]]
        pending = [node.issue_lookup(t, "G") for t in fresh_net.ids[1:5]]
        fresh_net.sim.run()
        assert all(p.result is not None for p in pending)
        assert not node.pending and not hasattr(node, "results")

    def test_all_algorithms_resolve(self, fresh_net):
        rng = np.random.default_rng(0)
        for algo in ("G", "NG", "NGSA"):
            o, t = (int(x) for x in rng.choice(fresh_net.ids, 2, replace=False))
            assert fresh_net.lookup_sync(o, t, algo).found, algo


class TestJoinProtocol:
    def test_join_places_between_neighbours(self):
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=5)
        net.build(32)
        sorted_ids = sorted(net.ids)
        newcomer = (sorted_ids[10] + sorted_ids[11]) // 2
        assert newcomer not in net.nodes
        node = net.join_new_node(newcomer, via=sorted_ids[0])
        net.sim.run()
        # The joiner ends up linked to its ID-space neighbours.
        links = node.table.level0
        assert links, "joiner got no level-0 links"
        assert any(abs(l - newcomer) < 2**28 for l in links)
        # And both sides know each other.
        for l in links:
            assert net.nodes[l].table.get(newcomer) is not None

    def test_join_gets_parent(self):
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=5)
        net.build(32)
        sorted_ids = sorted(net.ids)
        newcomer = (sorted_ids[3] + sorted_ids[4]) // 2
        node = net.join_new_node(newcomer)
        net.sim.run()
        assert node.table.level1_parent() is not None

    def test_duplicate_join_rejected(self):
        net = TreePNetwork(seed=5)
        net.build(16)
        with pytest.raises(ValueError):
            net.join_new_node(net.ids[0])

    def test_join_without_a_live_bootstrap_raises_and_writes_nothing(self):
        """A down *via*, or no live peer at all, is refused before the
        joiner is registered: the node would otherwise sit in ``ids`` and
        ``nodes`` with empty tables, never having joined."""
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=5)
        net.build(32)
        sorted_ids = sorted(net.ids)
        newcomer = (sorted_ids[10] + sorted_ids[11]) // 2
        down = sorted_ids[0]
        net.fail_nodes([down])

        def state():
            return list(net.ids), set(net.nodes), set(net.capacities)

        before = state()
        with pytest.raises(ValueError, match="down"):
            net.join_new_node(newcomer, via=down)
        assert state() == before
        net.fail_nodes(net.alive_ids())
        with pytest.raises(RuntimeError, match="no live node"):
            net.join_new_node(newcomer)
        assert state() == before


class TestElectionProtocol:
    def test_orphan_group_elects_parent(self):
        """Three orphan level-0 nodes elect the strongest as parent."""
        cfg = TreePConfig.paper_case1()
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        caps = [NodeCapacity(cpu=1), NodeCapacity(cpu=32, memory_gb=64),
                NodeCapacity(cpu=2)]
        nodes = []
        for i, cap in enumerate(caps):
            node = TreePNode(1000 * (i + 1), cap, cfg)
            net.register(node)
            nodes.append(node)
        now = 0.0
        # Wire a line: a-b-c with mutual level-0 knowledge.
        a, b, c = nodes
        a.table.add("level0", b.ident, now)
        b.table.add("level0", a.ident, now)
        b.table.add("level0", c.ident, now)
        c.table.add("level0", b.ident, now)
        a.table.add("level0", c.ident, now)
        c.table.add("level0", a.ident, now)
        b.trigger_election(0)
        sim.run(until=30.0)
        # The strongest (b) won and the others adopted it.
        assert b.max_level == 1
        assert a.table.level1_parent() == b.ident
        assert c.table.level1_parent() == b.ident
        # Parent registered its children.
        assert a.ident in b.table.children
        assert c.ident in b.table.children

    def test_no_election_with_existing_parent(self):
        sim, net, (a, b, c) = tiny_net()
        a.table.add("level0", b.ident, 0.0)
        a.table.add("level0", c.ident, 0.0)
        a.table.set_parent(1, b.ident, 0.0)
        a.trigger_election(0)
        sim.run(until=10.0)
        assert a.max_level == 0  # nothing happened

    def test_no_election_below_min_degree(self):
        sim, net, (a, b, _) = tiny_net()
        a.table.add("level0", b.ident, 0.0)
        a.trigger_election(0)
        sim.run(until=10.0)
        assert a.max_level == 0


class TestDemotionProtocol:
    def test_underfilled_parent_abdicates(self):
        cfg = TreePConfig.paper_case1(demotion_base=1.0)
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        parent = TreePNode(5000, NodeCapacity(), cfg)
        child = TreePNode(4000, NodeCapacity(), cfg)
        net.register(parent)
        net.register(child)
        parent.max_level = 1
        parent.table.add_child(1, 4000, 0.0)
        child.table.set_parent(1, 5000, 0.0)
        parent.check_demotion()
        sim.run(until=60.0)
        assert parent.max_level == 0
        assert child.table.level1_parent() is None  # child was notified

    def test_demotion_cancelled_by_new_children(self):
        cfg = TreePConfig.paper_case1(demotion_base=5.0)
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        parent = TreePNode(5000, NodeCapacity(), cfg)
        net.register(parent)
        parent.max_level = 1
        parent.table.add_child(1, 4000, 0.0)
        parent.check_demotion()
        # A second child reports before the countdown fires.
        sim.schedule(0.1, lambda: parent._on_ChildReport(
            3000, __import__("repro.core.messages", fromlist=["ChildReport"]).ChildReport(3000, 1.0, 0)))
        sim.run(until=60.0)
        assert parent.max_level == 1

    def test_abdicated_level_leaves_no_child_links(self):
        """Giving up level L unlinks its children: none stays in
        ``table.children`` or among the maintained connections."""
        cfg = TreePConfig.paper_case1(demotion_base=1.0)
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        parent = TreePNode(5000, NodeCapacity(), cfg)
        child = TreePNode(4000, NodeCapacity(), cfg)
        net.register(parent)
        net.register(child)
        parent.max_level = 1
        parent.table.add_child(1, 4000, 0.0)
        parent._demotion_expired(1)
        assert parent.max_level == 0
        assert 4000 not in parent.table.children
        assert 4000 not in parent.table.active_connections()
        assert parent.child_count(1) == 0

    def test_demote_from_a_child_drops_it_from_the_count(self):
        """A child that gives up its top level is no longer our child at
        the level above it: ``child_count`` falls with ``children``."""
        from repro.core.messages import Demote

        sim, net, (parent, *_) = tiny_net()
        parent.max_level = 2
        parent.table.add_child(2, 2000, 0.0, max_level=1)
        parent.table.add_child(2, 3000, 0.0, max_level=1)
        parent._on_Demote(2000, Demote(node=2000, level=1))
        assert parent.child_count(2) == 1
        assert parent.table.level_children[2] == [3000]
        assert parent.table.children == {3000}

    def test_keep_upper_policy_retains_level(self):
        cfg = TreePConfig.paper_case1(demotion_policy="keep-upper",
                                      demotion_base=1.0)
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        node = TreePNode(5000, NodeCapacity(), cfg)
        net.register(node)
        node.max_level = 2
        node.table.open_children(2)
        node.check_demotion()
        sim.run(until=60.0)
        assert node.max_level == 2  # §VI variant: stays in the upper layer


class _EventLog:
    """A stand-in obs hub that records the protocol events with their time."""

    def __init__(self):
        self.log = []

    def event(self, name, ident, now, **fields):
        self.log.append((name, ident, now, fields.get("value")))


class TestManagersOnDemand:
    """A node builds its election and demotion managers on first use; a run
    on nodes whose managers were never touched must match one on nodes whose
    managers were built up front: same countdowns, same outcome."""

    @staticmethod
    def _election(touch_first):
        cfg = TreePConfig.paper_case1()
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        events = _EventLog()
        caps = [NodeCapacity(cpu=4), NodeCapacity(cpu=16, memory_gb=32),
                NodeCapacity(cpu=8), NodeCapacity(cpu=2)]
        nodes = []
        for i, cap in enumerate(caps):
            node = TreePNode(1000 * (i + 1), cap, cfg)
            node.obs = events
            net.register(node)
            nodes.append(node)
        for node in nodes:
            assert "elections" not in vars(node)
            if touch_first:
                assert node.elections.active == {}
            for other in nodes:
                if other is not node:
                    node.table.add("level0", other.ident, 0.0)
        nodes[0].trigger_election(0)
        sim.run(until=30.0)
        return (events.log,
                [(n.max_level, n.table.level1_parent(), sorted(n.table.children),
                  {lvl: (e.winner, e.resolved, e.participants)
                   for lvl, e in n.elections.active.items()}) for n in nodes])

    @staticmethod
    def _demotion(touch_first):
        cfg = TreePConfig.paper_case1(demotion_base=1.0)
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        events = _EventLog()
        parent = TreePNode(5000, NodeCapacity(cpu=8), cfg)
        child = TreePNode(4000, NodeCapacity(), cfg)
        for node in (parent, child):
            node.obs = events
            net.register(node)
        assert "demotions" not in vars(parent)
        if touch_first:
            assert parent.demotions.pending == {}
        parent.max_level = 1
        parent.table.add_child(1, 4000, 0.0)
        child.table.set_parent(1, 5000, 0.0)
        parent.check_demotion()
        sim.run(until=60.0)
        return events.log, parent.max_level, child.table.level1_parent(), parent.demotions.pending

    def test_an_election_on_untouched_managers_matches_one_on_built_ones(self):
        lazy, eager = self._election(False), self._election(True)
        assert lazy == eager
        won = [e for e in lazy[0] if e[0] == "election.won"]
        assert [(ident, level) for _, ident, _, level in won] == [(2000, 1.0)]

    def test_a_demotion_on_an_untouched_manager_matches_one_on_a_built_one(self):
        lazy, eager = self._demotion(False), self._demotion(True)
        assert lazy == eager
        (name, ident, at, level), = lazy[0]
        assert (name, ident, level) == ("election.demoted", 5000, 1.0) and at > 0
        assert lazy[1:3] == (0, None)


class TestPromotionOnOverflow:
    def test_overfull_parent_promotes_best_child(self):
        """A parent receiving more ChildReports than nc splits its cell by
        promoting the strongest child to its own level (§III.a)."""
        from repro.core.messages import ChildReport

        cfg = TreePConfig.paper_case1(nc_fixed=2)
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        parent = TreePNode(50_000, NodeCapacity(), cfg)
        parent.max_level = 1
        net.register(parent)
        kids = []
        for i, cpu in enumerate([1, 2, 16]):
            child = TreePNode(10_000 * (i + 1), NodeCapacity(cpu=cpu), cfg)
            net.register(child)
            kids.append(child)
        for child in kids:
            child.table.set_parent(1, parent.ident, 0.0)
            child.send(parent.ident, ChildReport(child.ident, child.score, 0))
        sim.run()
        # The strongest child (16 cores) was promoted to level 1...
        strongest = kids[2]
        assert strongest.max_level == 1
        # ...and removed from the parent's children, restoring nc.
        assert parent.child_count(1) <= 2
        assert strongest.ident not in parent.table.children
        # The old parent is now a bus neighbour at the new level.
        assert parent.ident in strongest.table.neighbours_at(1)

    def test_stale_grant_ignored(self):
        from repro.core.messages import PromoteGrant

        cfg = TreePConfig.paper_case1()
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        node = TreePNode(1000, NodeCapacity(), cfg)
        net.register(node)
        node.max_level = 2
        node._on_PromoteGrant(99, PromoteGrant(child=1000, to_level=1))
        assert node.max_level == 2  # downgrade attempts are ignored
        node._on_PromoteGrant(99, PromoteGrant(child=555, to_level=5))
        assert node.max_level == 2  # grants for other nodes are ignored


class TestMaintenanceProtocol:
    def test_keepalives_refresh_entries(self):
        net = TreePNetwork(
            config=TreePConfig.paper_case1(keepalive_interval=1.0, entry_ttl=10.0),
            seed=2,
        )
        net.build(16)
        net.start_maintenance()
        net.sim.run_for(5.0)
        net.stop_maintenance()
        # Entries on active connections are fresh (touched within ~1-2 periods).
        now = net.sim.now
        for node in net.nodes.values():
            for peer in node.table.active_connections():
                e = node.table.get(peer)
                assert e is not None and now - e.last_seen < 4.0

    def test_dead_neighbour_expires(self):
        net = TreePNetwork(
            config=TreePConfig.paper_case1(keepalive_interval=1.0, entry_ttl=3.0),
            seed=2,
        )
        net.build(16)
        victim = net.ids[5]
        net.network.set_down(victim)
        net.start_maintenance()
        net.sim.run_for(15.0)
        net.stop_maintenance()
        for i, node in net.nodes.items():
            if i != victim:
                assert node.table.get(victim) is None, f"{i} still knows the dead node"

    def test_expired_peer_leaves_no_sync_point(self):
        """A peer that expires takes its delta sync point with it, so the
        keep-alive state stays bounded by the table and a re-learnt peer
        gets a full first-contact delta (§III.d)."""
        net = TreePNetwork(
            config=TreePConfig.paper_case1(keepalive_interval=1.0, entry_ttl=3.0),
            seed=2,
        )
        net.build(16)
        victim = net.ids[5]
        linked = [n for n in net.nodes.values()
                  if victim in n.table.active_connections()]
        assert linked
        net.start_maintenance()
        net.sim.run_for(1.5)
        net.network.set_down(victim)
        assert any(victim in n.maintenance._last_sync for n in linked)
        net.sim.run_for(15.0)
        net.stop_maintenance()
        for i, node in net.nodes.items():
            if i != victim:
                assert node.table.get(victim) is None
                assert victim not in node.maintenance._last_sync, i

    def test_child_links_follow_the_levels_still_parented_after_churn(self):
        """Maintenance before and after a 30 % crash: children expire,
        demote and are given up with their level, and through all of it a
        survivor's ``children`` are exactly the children listed at the
        levels it still parents."""
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=1)
        net.build(128)
        net.start_maintenance()
        net.sim.run_for(5.0)
        net.fail_nodes([int(v) for v in np.random.default_rng(1).choice(
            net.ids, 38, replace=False)])
        net.sim.run_for(100.0)
        net.stop_maintenance()
        for i, node in net.nodes.items():
            if net.network.is_up(i):
                levels = node.table.level_children
                assert all(lvl <= node.max_level for lvl in levels), i
                assert node.table.children == {
                    k for kids in levels.values() for k in kids}, i

    def test_maintenance_traffic_counted(self):
        net = TreePNetwork(
            config=TreePConfig.paper_case1(keepalive_interval=1.0), seed=2
        )
        net.build(16)
        net.network.reset_stats()
        net.start_maintenance()
        net.sim.run_for(5.0)
        net.stop_maintenance()
        stats = net.network.stats
        assert stats.by_type.get("KeepAlive", 0) > 0
        assert stats.by_type.get("KeepAliveAck", 0) > 0
        mm = net.nodes[net.ids[0]].maintenance
        assert mm is not None and mm.stats.keepalives_sent > 0


class TestHandlerRegistry:
    """The service handler-registration API (no monkey-patching)."""

    def test_registered_handler_receives_datagrams(self):
        sim, net, (a, b, _) = tiny_net()
        seen = []
        b.register_handler(Hello, lambda src, msg: seen.append((src, msg)))
        a.send(b.ident, Hello(0, 1.0, 4))
        sim.run()
        assert seen and seen[0][0] == a.ident
        # The registered handler replaced the built-in: no HelloAck came back.
        assert a.table.get(b.ident) is None

    def test_duplicate_registration_rejected(self):
        sim, net, (a, _, _) = tiny_net()
        a.register_handler(Hello, lambda src, msg: None)
        with pytest.raises(ValueError):
            a.register_handler(Hello, lambda src, msg: None)
        a.unregister_handler(Hello)
        a.register_handler(Hello, lambda src, msg: None)  # free again: ok

    def test_the_first_registration_gives_the_node_its_own_handler_map(self):
        sim, net, (a, b, _) = tiny_net()
        assert a.handlers is b.handlers and not a.handlers  # the shared default
        with pytest.raises(TypeError):
            a.handlers[Hello] = print
        a.unregister_handler(Hello)         # no-op removal keeps working
        a.register_handler(Hello, print)
        assert a.handlers == {Hello: print} and not b.handlers
        assert set(a.handlers) == {Hello} and set(b.handlers) == set()

    def test_unregister_restores_builtin(self):
        sim, net, (a, b, _) = tiny_net()
        b.register_handler(Hello, lambda src, msg: None)
        b.unregister_handler(Hello)
        b.unregister_handler(Hello)  # idempotent
        a.send(b.ident, Hello(a.max_level, a.score, a.nc))
        sim.run()
        assert b.table.get(a.ident) is not None  # built-in _on_Hello ran again

    def test_node_hooks_cover_built_and_joined_nodes(self):
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=7)
        seen = []
        net.node_hooks.append(lambda node: seen.append(node.ident))
        net.build(64)
        assert seen == net.ids
        new_id = max(net.ids) + 1
        if new_id < net.config.space.extent:
            net.join_new_node(new_id)
            assert seen[-1] == new_id
