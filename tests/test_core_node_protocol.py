"""Protocol-level tests: joins, elections, demotion, keep-alives, lookups
as real datagrams on small networks."""

from dataclasses import dataclass

import numpy as np
import pytest

from reference import ConstantLatency, entry
from repro import Cluster, JobSpec, TreePConfig, TreePNetwork
from repro.bench.sweep import fail_until
from repro.cluster.service import ClusterState, Service, ServiceError
from repro.core.capacity import NodeCapacity
from repro.core.messages import Hello
from repro.core.node import TreePNode
from repro.obs import ObsHub
from repro.sim.engine import Simulator
from repro.sim.network import Network


def tiny_net(n=3, **cfg_overrides):
    """n standalone nodes on a network, no hierarchy built."""
    cfg = TreePConfig.paper_case1(**cfg_overrides)
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    nodes = [TreePNode(1000 * (i + 1), NodeCapacity(), cfg) for i in range(n)]
    for node in nodes:
        net.register(node)
    net.handlers.update(TreePNode.handlers({node.ident: node for node in nodes}))
    return sim, net, nodes


def keepalive_running(node):
    p = node._protocol
    return p is not None and p.timer is not None and p.timer.running


def keepalive_ticks(hub, idents):
    """How often the keep-alive loops of *idents* ticked while *hub* was
    attached (the per-node ``keepalive:<id>`` event-label counts)."""
    return sum(hub.sim_event_counts.get(f"keepalive:{i}", 0) for i in idents)


class TestHello:
    def test_hello_exchange_populates_entries(self):
        sim, net, (a, b, _) = tiny_net()
        a.send(b.ident, Hello(a.max_level, a.score, a.nc))
        sim.run()
        assert entry(b.table, a.ident) is not None
        assert entry(a.table, b.ident) is not None  # via the ack

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
            assert entry(net.nodes[l].table, newcomer) is not None

    def test_join_gets_parent(self):
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=5)
        net.build(32)
        sorted_ids = sorted(net.ids)
        newcomer = (sorted_ids[3] + sorted_ids[4]) // 2
        node = net.join_new_node(newcomer)
        net.sim.run()
        assert node.table.parents.get(1) is not None

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
        net.handlers.update(TreePNode.handlers({node.ident: node for node in nodes}))
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
        assert a.table.parents.get(1) == b.ident
        assert c.table.parents.get(1) == b.ident
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
        net.handlers.update(TreePNode.handlers({5000: parent, 4000: child}))
        parent.max_level = 1
        parent.table.add_child(1, 4000, 0.0)
        child.table.set_parent(1, 5000, 0.0)
        parent.check_demotion()
        sim.run(until=60.0)
        assert parent.max_level == 0
        assert child.table.parents.get(1) is None  # child was notified

    def test_demotion_cancelled_by_new_children(self):
        cfg = TreePConfig.paper_case1(demotion_base=5.0)
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        parent = TreePNode(5000, NodeCapacity(), cfg)
        net.register(parent)
        net.handlers.update(TreePNode.handlers({5000: parent}))
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
        net.handlers.update(TreePNode.handlers({5000: parent, 4000: child}))
        parent.max_level = 1
        parent.table.add_child(1, 4000, 0.0)
        parent.check_demotion()
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

    def test_a_crashed_parent_neither_abdicates_nor_notifies(self):
        """A parent that crashes with its demotion countdown armed keeps its
        level, and sends no ``Demote``: the countdown ends without effect
        (and no longer counts as armed)."""
        cfg = TreePConfig.paper_case1(demotion_base=1.0)
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        parent = TreePNode(5000, NodeCapacity(), cfg)
        child = TreePNode(4000, NodeCapacity(), cfg)
        net.register(parent)
        net.register(child)
        net.handlers.update(TreePNode.handlers({5000: parent, 4000: child}))
        parent.max_level = 1
        parent.table.add_child(1, 4000, 0.0)
        child.table.set_parent(1, 5000, 0.0)
        parent.check_demotion()
        assert parent.demoting == {1}
        net.set_down(parent.ident)
        sim.run(until=60.0)
        assert parent.max_level == 1 and parent.child_count(1) == 1
        assert child.table.parents.get(1) == 5000
        assert net.stats.by_type.get("Demote", 0) == 0
        assert parent.demoting == set()

    def test_a_crashed_candidate_never_wins_its_election(self):
        sim, net, (a, b, c) = tiny_net()
        for x, y in ((a, b), (a, c), (b, a), (c, a)):
            x.table.add("level0", y.ident, 0.0)
        a.trigger_election(0)
        for node in (a, b, c):
            net.set_down(node.ident)
        sim.run(until=60.0)
        assert (a.max_level, b.max_level, c.max_level) == (0, 0, 0)
        assert net.stats.by_type.get("ParentClaim", 0) == 0

    def test_a_revived_candidate_can_run_the_election_its_crash_abandoned(self):
        """A node that crashes while counting down drops that election, so
        after its revival it can start one at the same level again (it
        used to stay unresolved, and ``start`` refused with -1)."""
        sim, net, (a, b, c) = tiny_net()
        for x, y in ((a, b), (a, c), (b, a), (c, a)):
            x.table.add("level0", y.ident, 0.0)
        a.trigger_election(0)
        net.set_down(a.ident)
        sim.run(until=30.0)
        assert a.max_level == 0 and 0 not in a.elections
        net.set_up(a.ident)
        a.trigger_election(0)
        assert a.elections == {0: [a.ident, b.ident, c.ident]}

    def test_keep_upper_policy_retains_level(self):
        cfg = TreePConfig.paper_case1(demotion_policy="keep-upper",
                                      demotion_base=1.0)
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        node = TreePNode(5000, NodeCapacity(), cfg)
        net.register(node)
        net.handlers.update(TreePNode.handlers({5000: node}))
        node.max_level = 2
        node.table.open_children(2)
        node.check_demotion()
        sim.run(until=60.0)
        assert node.max_level == 2  # §VI variant: stays in the upper layer


class TestProtocolStateOnDemand:
    def test_a_converged_run_holds_no_protocol_state(self):
        """A build and a lookup batch run no keep-alive, election or
        demotion, so no node holds any of their state: its
        ``_protocol`` is still the class-level ``None``."""
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=5)
        net.build(128)
        rng = np.random.default_rng(5)
        pairs = [tuple(int(x) for x in rng.choice(net.ids, 2, replace=False))
                 for _ in range(64)]
        assert all(r.found for r in net.run_lookup_batch(pairs))
        for node in net.nodes.values():
            assert "_protocol" not in vars(node)


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
        net.handlers.update(TreePNode.handlers(
            {node.ident: node for node in (parent, *kids)}))
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
        net.handlers.update(TreePNode.handlers({1000: node}))
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
                e = entry(node.table, peer)
                assert e is not None and now - e.last_seen < 4.0

    def test_a_joiner_keeps_alive_while_maintenance_runs(self):
        """A node that joins while maintenance runs arms its keep-alive
        loop, so its peers keep it instead of letting it expire."""
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=4)
        net.build(64)
        hub = ObsHub()
        net.set_obs(hub)
        net.start_maintenance()
        net.sim.run_for(5.0)
        joiner = net.join_new_node(max(net.ids) + 1)
        net.sim.run_for(60.0)
        net.stop_maintenance()
        assert keepalive_ticks(hub, [joiner.ident]) > 0
        holders = [i for i, node in net.nodes.items()
                   if entry(node.table, joiner.ident) is not None]
        assert holders

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
                assert entry(node.table, victim) is None, f"{i} still knows the dead node"

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
        assert any(victim in n._protocol.last_sync for n in linked)
        net.sim.run_for(15.0)
        net.stop_maintenance()
        for i, node in net.nodes.items():
            if i != victim:
                assert entry(node.table, victim) is None
                assert victim not in node._protocol.last_sync, i

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

    def test_a_crashed_node_goes_quiet_and_a_revived_one_resumes(self):
        """The crash probe: N = 512, seed 42, the 30 % that ``fail_until``
        kills on a twin network crashed in one burst after 5 s of
        maintenance.  In the 100 s that follow the down nodes send no
        keep-alive (their loops used to tick on, 3 610 of them)."""
        cfg = TreePConfig.paper_case1()
        twin = TreePNetwork(config=cfg, seed=42)
        twin.build(512)
        survivors = set(fail_until(twin, 0.30))
        net = TreePNetwork(config=cfg, seed=42)
        net.build(512)
        victims = [i for i in net.ids if i not in survivors]
        assert len(victims) == 156
        hub = ObsHub()
        net.set_obs(hub)
        net.start_maintenance()
        net.sim.run_for(5.0)
        before = keepalive_ticks(hub, victims)
        assert before > 0
        net.fail_nodes(victims)
        net.sim.run_for(100.0)
        assert keepalive_ticks(hub, victims) == before
        assert not any(keepalive_running(net.nodes[v]) for v in victims)
        # A revival while maintenance runs re-arms the node's loop...
        back = victims[:8]
        net.revive_nodes(back)
        assert all(keepalive_running(net.nodes[v]) for v in back)
        net.stop_maintenance()
        # ...and one after it stops does not.
        net.revive_nodes(victims[8:16])
        assert not any(keepalive_running(net.nodes[v]) for v in victims[8:16])

    def test_maintenance_skips_down_nodes_and_arms_them_on_revival(self):
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=2)
        net.build(16)
        victim = net.ids[5]
        net.network.set_down(victim)
        net.start_maintenance()
        assert net.nodes[victim]._protocol is None
        assert all(keepalive_running(net.nodes[i])
                   for i in net.ids if i != victim)
        net.revive_nodes([victim])
        assert keepalive_running(net.nodes[victim])
        net.stop_maintenance()

    def test_maintenance_traffic_counted(self):
        net = TreePNetwork(
            config=TreePConfig.paper_case1(keepalive_interval=1.0), seed=2
        )
        net.build(16)
        net.network.reset_stats()
        hub = ObsHub()
        net.set_obs(hub)
        net.start_maintenance()
        net.sim.run_for(5.0)
        net.stop_maintenance()
        stats = net.network.stats
        assert stats.by_type.get("KeepAlive", 0) > 0
        assert stats.by_type.get("KeepAliveAck", 0) > 0
        assert keepalive_ticks(hub, [net.ids[0]]) > 0


@dataclass(frozen=True)
class Ping:
    """A payload type of the tests' own, which the overlay does not handle."""


class TestHandlerRegistry:
    """The fabric's one handler table (no monkey-patching, no map per
    node): ``net.handlers[type] = (receivers, fn)`` runs
    ``fn(receivers[dst], src, payload)``; the overlay's own types are
    entries of the same table, and a type with no entry is dropped."""

    def test_registered_handler_receives_datagrams(self):
        sim, net, (a, b, _) = tiny_net()
        seen = []
        net.handlers[Ping] = ({b.ident: seen},
                              lambda log, src, msg: log.append((src, msg)))
        a.send(b.ident, Ping())
        sim.run()
        assert seen and seen[0][0] == a.ident
        # Only the table's handler ran: no overlay message came back.
        assert entry(a.table, b.ident) is None

    def test_duplicate_registration_rejected(self):
        """A type another service holds is refused at attach, and is
        free again once that service detaches."""

        class Claim(Service):
            def __init__(self, name, msg_type=Ping):
                super().__init__()
                self.name, self.agents, self.msg_type = name, {}, msg_type

            def setup_node(self, node):
                self.agents[node.ident] = node

            def handlers(self):
                return {self.msg_type: (self.agents, lambda node, src, msg: None)}

        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=7)
        net.build(8)
        state = ClusterState.of(net)
        first = state.attach(Claim("first"))
        with pytest.raises(ServiceError, match="Ping"):
            state.attach(Claim("second"))
        assert net.network.handlers[Ping][0] is first.agents
        state.detach(first)
        state.attach(Claim("second"))  # free again: ok

    def test_a_service_cannot_claim_an_overlay_type(self):
        """The overlay's types are entries of the same table, so a service
        that claims one is refused like any other claim of a held type,
        and the overlay keeps handling it."""

        class Thief(Service):
            name = "thief"

            def handlers(self):
                return {Hello: ({}, lambda agent, src, msg: None)}

        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=7)
        net.build(8)
        state = ClusterState.of(net)
        with pytest.raises(ServiceError, match="Hello"):
            state.attach(Thief())
        assert state.services == {}
        assert net.network.handlers[Hello] == (net.nodes, TreePNode._on_Hello)
        a, b = (net.nodes[i] for i in net.ids[:2])
        b.table.forget(a.ident)
        a.send(b.ident, Hello(a.max_level, a.score, a.nc))
        net.sim.run()
        assert entry(b.table, a.ident) is not None  # _on_Hello ran

    def test_every_node_reads_the_one_handler_table(self):
        sim, net, (a, b, c) = tiny_net()
        assert not any("handlers" in vars(node) for node in (a, b, c))
        seen = {a.ident: [], b.ident: []}
        net.handlers[Ping] = (seen, lambda log, src, msg: log.append(src))
        c.send(a.ident, Ping())
        c.send(b.ident, Ping())
        sim.run()
        # One entry serves every node, each on its own receiver.
        assert seen == {a.ident: [c.ident], b.ident: [c.ident]}

    def test_unregister_restores_builtin(self):
        """An entry written over the overlay's and then put back: the
        overlay's own handler runs again."""
        sim, net, (a, b, _) = tiny_net()
        builtin = net.handlers[Hello]
        net.handlers[Hello] = ({b.ident: None}, lambda agent, src, msg: None)
        net.handlers[Hello] = builtin
        a.send(b.ident, Hello(a.max_level, a.score, a.nc))
        sim.run()
        assert entry(b.table, a.ident) is not None  # built-in _on_Hello ran again

    def test_a_running_cluster_drops_no_datagram_for_want_of_a_handler(self):
        """Every datagram a cluster with every service sends, under
        maintenance, lookups, quorum operations and jobs, finds an entry in
        the handler table: none reaches the ``node.drop`` fallback."""
        cluster = Cluster(seed=7).build(128).with_compute()
        net = cluster.net
        hub = ObsHub()
        net.set_obs(hub)
        net.start_maintenance()
        net.sim.run_for(30.0)
        rng = np.random.default_rng(7)
        pairs = [tuple(int(x) for x in rng.choice(net.ids, 2, replace=False))
                 for _ in range(50)]
        assert all(r.found for r in net.run_lookup_batch(pairs))
        for i in range(20):
            assert cluster.storage.put(f"k{i % 5}", i).ok
            assert cluster.storage.get(f"k{(i + 2) % 5}").found == (i >= 3)
        for job_id in range(1, 5):
            cluster.compute.submit(JobSpec(job_id=job_id, work=10.0))
        assert cluster.compute.run_until_done(timeout=300.0)
        net.stop_maintenance()
        handled = {t.__name__ for t in net.network.handlers}
        fired = {label.removeprefix("dgram:") for label in hub.sim_event_counts
                 if label.startswith("dgram:")}
        assert {"KeepAlive", "LookupRequest", "StorePut", "JobSubmit"} <= fired
        assert fired <= handled
        assert hub.category_counts().get("node.drop", 0) == 0
        cluster.shutdown()

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
