"""Unit tests for the self-healing machinery (purge / relink / gossip)."""

import gc
import hashlib
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import entries, entry, membership, nearest_sides
from repro import TreePConfig, TreePNetwork
from repro.core import repair
from repro.core.repair import (
    FULL_POLICY,
    PAPER_POLICY,
    PURGE_ONLY_POLICY,
    apply_failure_step,
    gossip_round,
    purge_dead,
    relink_node,
)
from repro.core.routing_table import RoutingTable
from repro.core.treep import paused_collector


def built(n=64, seed=7):
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    net.build(n)
    return net


def kill(net, count, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    victims = [int(v) for v in rng.choice(net.ids, count, replace=False)]
    net.fail_nodes(victims)
    return victims


def table_state(net):
    """Every node's routing state, order-sensitive: entries in dict order,
    each role set in iteration order, ``parents``, ``level_children``."""
    out = []
    for ident, node in net.nodes.items():
        t = node.table
        out.append((
            ident,
            entries(t),
            list(t.level0), list(t.level0_indirect),
            [(lvl, list(ids)) for lvl, ids in t.level_tables.items()],
            list(t.children), list(t.neighbour_children), list(t.superiors),
            list(t.parents.items()),
            [(lvl, list(kids)) for lvl, kids in t.level_children.items()],
        ))
    return out


def known_dead(net):
    """Brute-force count of (live table, down peer) entries."""
    up = net.network.is_up
    down = [i for i in net.ids if not up(i)]
    return sum(entry(node.table, d) is not None
               for i, node in net.nodes.items() if up(i) for d in down)


class TestPurge:
    def test_purge_removes_dead_everywhere(self):
        net = built()
        victims = kill(net, 10)
        purge_dead(net)
        for i, node in net.nodes.items():
            if net.network.is_up(i):
                for v in victims:
                    assert entry(node.table, v) is None

    def test_purge_incremental_equals_full(self):
        net1, net2 = built(), built()
        victims = kill(net1, 10)
        kill(net2, 10)
        purge_dead(net1)
        purge_dead(net2, newly_dead=victims)
        for i in net1.ids:
            if net1.network.is_up(i):
                assert set(net1.nodes[i].table.all_known()) == set(
                    net2.nodes[i].table.all_known()
                )

    def test_purge_prunes_children_lists(self):
        net = built()
        victims = set(kill(net, 15))
        purge_dead(net)
        for i, node in net.nodes.items():
            if net.network.is_up(i):
                for kids in node.table.level_children.values():
                    assert victims.isdisjoint(kids)

    def test_purge_noop_without_dead(self):
        net = built()
        assert purge_dead(net) == 0


def mentions(net, ident):
    """Every peer id node *ident*'s routing state refers to, in any role."""
    node = net.nodes[ident]
    t = node.table
    out = set(t.all_known()) | t.level0 | t.level0_indirect | t.children
    out |= t.neighbour_children | t.superiors | set(t.parents.values())
    for ids in t.level_tables.values():
        out |= ids
    for kids in t.level_children.values():
        out.update(kids)
    return out


class TestPurgeProperty:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_incremental_purge_equals_full_for_any_burst_split(self, data):
        net_full, net_inc = built(), built()
        victims = data.draw(st.lists(st.sampled_from(sorted(net_full.ids)),
                                     min_size=1, max_size=40, unique=True))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(victims)), max_size=4)))
        bursts = [victims[a:b] for a, b in zip([0] + cuts, cuts + [len(victims)])]

        net_full.fail_nodes(victims)
        purge_dead(net_full)
        for burst in bursts:  # empty bursts included
            net_inc.fail_nodes(burst)
            purge_dead(net_inc, newly_dead=burst)

        # Only live tables compare: a later victim's own table was still
        # being purged while it lived.
        down = set(victims)
        live = [s for s in table_state(net_full) if s[0] not in down]
        assert live == [s for s in table_state(net_inc) if s[0] not in down]
        for ident in net_inc.alive_ids():
            assert down.isdisjoint(mentions(net_inc, ident))


class TestRelink:
    def test_relink_restores_two_links(self):
        net = built()
        # Kill one direct neighbour of a middle node.
        mid = sorted(net.ids)[30]
        node = net.nodes[mid]
        victim = next(iter(node.table.level0))
        net.network.set_down(victim)
        purge_dead(net)
        relink_node(node, PAPER_POLICY)
        assert len(node.table.level0) >= 2
        assert victim not in node.table.level0

    def test_relink_links_nearest_known(self):
        net = built()
        mid = sorted(net.ids)[30]
        node = net.nodes[mid]
        relink_node(node, PAPER_POLICY)
        known = node.table.all_known()
        left = max((i for i in known if i < mid), default=None)
        right = min((i for i in known if i > mid), default=None)
        for expected in (left, right):
            if expected is not None:
                assert expected in node.table.level0

    def test_purge_only_policy_does_not_relink(self):
        net = built()
        mid = sorted(net.ids)[30]
        node = net.nodes[mid]
        victim = next(iter(node.table.level0))
        net.network.set_down(victim)
        purge_dead(net)
        before = set(node.table.level0)
        relink_node(node, PURGE_ONLY_POLICY)
        assert set(node.table.level0) == before

    def test_adopt_parent_when_enabled(self):
        net = built()
        # Find a node whose parent we kill.
        child = next(i for i in net.ids
                     if net.nodes[i].table.parents.get(net.nodes[i].max_level + 1))
        node = net.nodes[child]
        parent = node.table.parents[node.max_level + 1]
        net.network.set_down(parent)
        purge_dead(net)
        relink_node(node, FULL_POLICY)
        new_parent = node.table.parents.get(node.max_level + 1)
        if new_parent is not None:  # a replacement existed in its knowledge
            assert new_parent != parent
            assert net.network.is_up(new_parent)


_R_META = st.tuples(st.integers(0, 4), st.sampled_from([0.5, 1.0, 2.5]), st.integers(3, 5))


@st.composite
def relink_tables(draw):
    """A node and a recipe for its table: ids on both sides of the owner or
    on one (an endpoint), few or none; each id's metadata from the book,
    from an override of a booked id, or from an override of an id the
    book lacks; roles written before the relink (level-0 links, buses in
    any level order, some ids discarded again)."""
    owner = draw(st.integers(0, 60))
    ids = draw(st.lists(st.integers(0, 60).filter(lambda i: i != owner),
                        max_size=14, unique=True))
    book = {i: draw(_R_META) for i in ids if draw(st.booleans())}
    book[owner] = (0, 1.0, 4)
    metas = [book[i] if i in book and draw(st.booleans()) else draw(_R_META) for i in ids]
    known = st.sampled_from(ids) if ids else st.nothing()
    before = draw(st.lists(st.tuples(st.integers(0, 4), st.lists(known, max_size=4)),
                           max_size=4)) if ids else []
    dropped = draw(st.lists(known, max_size=3)) if ids else []
    return owner, draw(st.integers(0, 4)), book, list(zip(ids, metas)), before, dropped


def _node_from(recipe):
    owner, top, book, plan, before, dropped = recipe
    t = RoutingTable(owner, book)
    for i, meta in plan:
        t.upsert(i, 0.0, *meta)
    for lvl, ids in before:
        if lvl:
            t.set_level(lvl, ids)
        else:
            t.set_role("level0", ids)
    for i in dropped:
        t.unlink("level0", i)
        for lvl in list(t.level_tables):
            t.unlink_level(lvl, i)
    return SimpleNamespace(ident=owner, max_level=top, table=t, sim=SimpleNamespace(now=1.0))


class TestRelinkMatchesTheFullScans:
    """The one-walk relink against the one it replaced
    (:func:`reference.relink_node`): one scan per level over the whole
    table.  Both must leave every role set iterating in the same order,
    the buses in the same dict order, and the same ``version`` and
    membership epoch."""

    @settings(max_examples=400, deadline=None)
    @given(recipe=relink_tables(), policy=st.sampled_from([PAPER_POLICY, FULL_POLICY]))
    def test_same_links_in_the_same_order(self, recipe, policy):
        new, old = _node_from(recipe), _node_from(recipe)
        got, want = new.table, old.table
        for _ in range(2):  # the second pass replaces the links the first wrote
            relink_node(new, policy)
            reference.relink_node(old, policy)
            assert list(got.level0) == list(want.level0)
            assert type(got.level0) is type(want.level0)
            assert [(lvl, list(ids)) for lvl, ids in got.level_tables.items()] == \
                [(lvl, list(ids)) for lvl, ids in want.level_tables.items()]
            assert list(got.parents.items()) == list(want.parents.items())
            assert (got.version, membership(got)) == (want.version, membership(want))
            assert entries(got) == entries(want)


class TestGossip:
    def test_gossip_spreads_indirect_neighbours(self):
        net = built()
        gossip_round(net)
        sorted_ids = sorted(net.ids)
        mid = sorted_ids[30]
        node = net.nodes[mid]
        # After one round the node knows its neighbours' neighbours.
        assert node.table.level0_indirect, "no indirect knowledge gained"

    def test_gossip_keeps_tables_bounded(self):
        net = built(n=128)
        sizes_before = [net.nodes[i].table.size() for i in net.ids]
        for _ in range(5):
            gossip_round(net)
        sizes_after = [net.nodes[i].table.size() for i in net.ids]
        # Bounded: repeated gossip cannot blow tables up indefinitely.
        assert np.mean(sizes_after) < np.mean(sizes_before) * 4
        assert max(sizes_after) < 64

    def test_gossip_never_imports_dead(self):
        net = built()
        victims = set(kill(net, 10))
        purge_dead(net)
        for _ in range(3):
            gossip_round(net)
        for i, node in net.nodes.items():
            if net.network.is_up(i):
                assert victims.isdisjoint(node.table.all_known())


def eager_gossip_round(net):
    """The round as it was before it read its peers in place: a copy of
    every live node's role sets and of its entries' metadata first, then
    one ``upsert`` + ``add`` per imported id, each node trimmed right after
    its own exchange — the reference :func:`gossip_round` must reproduce."""
    now = net.sim.now
    snapshot = {}
    for ident, node in net.nodes.items():
        if not net.network.is_up(ident):
            continue
        t = node.table
        snapshot[ident] = (
            set(t.level0),
            {lvl: set(ids) for lvl, ids in t.level_tables.items()},
            t.level_children,
            t.parents,
            set(t.superiors),
            (node.max_level, node.score, node.nc),
            {i: t.meta(i) for i in t.all_known()},
        )

    def import_role(t, ids, meta, role):
        for i in ids:
            if i != t.owner:
                t.upsert(i, now, *meta.get(i, ()))
                role.add(i)

    for ident, snap in snapshot.items():
        node = net.nodes[ident]
        t = node.table
        my_level0, my_buses, _, my_parents, _, _, _ = snap
        new_indirect = set()
        for peer in my_level0:
            ps = snapshot.get(peer)
            if ps is None:
                continue
            p_level0, _, _, _, _, pme, pmeta = ps
            t.upsert(peer, now, *pme)
            import_role(t, p_level0, pmeta, new_indirect)
        if new_indirect:
            t.set_role("level0_indirect", new_indirect - t.level0)
        fresh_nc = set()
        any_bus_exchange = False
        for lvl, bus_entries in my_buses.items():
            l, r = nearest_sides(bus_entries, ident)
            fresh_level = set()
            for peer in {i for i in (l, r) if i is not None}:
                ps = snapshot.get(peer)
                if ps is None:
                    continue
                _, p_buses, p_children, _, _, pme, pmeta = ps
                t.upsert(peer, now, *pme)
                fresh_level.add(peer)
                import_role(t, p_buses.get(lvl, ()), pmeta, fresh_level)
                import_role(t, p_children.get(lvl, ()), pmeta, fresh_nc)
            if fresh_level:
                any_bus_exchange = True
                t.set_level(lvl, fresh_level)
        if any_bus_exchange:
            t.set_role("neighbour_children", fresh_nc)
        p = my_parents.get(node.max_level + 1)
        ps = snapshot.get(p) if p is not None else None
        if ps is not None:
            _, p_buses, _, p_parents, p_superiors, pme, pmeta = ps
            new_sup = set()
            for group in (p_parents.values(), p_superiors, p_buses.get(pme[0], ())):
                import_role(t, group, pmeta, new_sup)
            t.set_role("superiors", new_sup)
        t.trim_to_roles()


def full_state(net):
    """:func:`table_state` plus every table's ``version`` and ``membership``."""
    counters = [(n.table.version, membership(n.table)) for n in net.nodes.values()]
    return table_state(net), counters


def disagree(net, rng, share=0.3):
    """Make tables disagree about their peers: in about *share* of the live
    tables, give a third of the entries another ``max_level`` and ``score``
    (through ``upsert``, keeping ``last_seen``), so a round carries values
    that differ from what its receivers hold."""
    for ident in net.alive_ids():
        if rng.random() >= share:
            continue
        t = net.nodes[ident].table
        for e in [entry(t, i) for i in t.all_known()]:
            if rng.random() < 1 / 3:
                t.upsert(e.ident, e.last_seen, max_level=(e.max_level + 1) % 3,
                         score=e.score * 2.0 + 0.25)


class TestInPlaceRoundEqualsTheEagerRound:
    """Differential oracle: the in-place round against the copying round
    it replaced, table for table — entries with every field in dict order,
    every role set as a list, ``level_tables``, ``version``, ``membership``."""

    @pytest.mark.parametrize("policy", [PAPER_POLICY, FULL_POLICY, PURGE_ONLY_POLICY],
                             ids=["paper", "full", "purge_only"])
    @pytest.mark.parametrize("n,seed,seeded_disagreement", [
        (300, 9, False), (300, 11, True), (120, 3, True)])
    def test_bursts_with_steps_and_extra_rounds(self, monkeypatch, policy, n, seed,
                                                seeded_disagreement):
        nets = [built(n=n, seed=seed), built(n=n, seed=seed)]
        order = [int(v) for v in np.random.default_rng(seed).permutation(nets[0].ids)]
        size = n // 10
        rounds = 0
        for burst in range(3):
            step = order[burst * size:(burst + 1) * size]
            for net, round_ in zip(nets, (gossip_round, eager_gossip_round)):
                net.fail_nodes(step)
                if seeded_disagreement:
                    disagree(net, np.random.default_rng(seed + burst))
                with monkeypatch.context() as m:
                    m.setattr(repair, "gossip_round", round_)
                    apply_failure_step(net, step, policy)
                if seeded_disagreement:
                    disagree(net, np.random.default_rng(seed + 10 + burst))
                round_(net)  # a round after any policy, purge-only included
            assert full_state(nets[0]) == full_state(nets[1])
            rounds += 1 + policy.gossip_rounds
        assert rounds >= 3

    def test_a_peer_read_after_its_own_exchange_gives_its_pre_round_metadata(self):
        """A chain where the receiver processed first overwrites the value a
        later reader must still see: node B holds stale metadata for C and
        is processed before A, which imports C's entry from B."""
        nets = [built(n=64, seed=5), built(n=64, seed=5)]
        for net, round_ in zip(nets, (gossip_round, eager_gossip_round)):
            ids = net.alive_ids()
            for ident in ids:  # every table disagrees with every other
                t = net.nodes[ident].table
                for e in [entry(t, i) for i in t.all_known()]:
                    t.upsert(e.ident, e.last_seen, score=float(ident % 7 + e.ident % 5))
            round_(net)
        assert full_state(nets[0]) == full_state(nets[1])


class TestApplyFailureStep:
    def test_survivors_keep_resolving(self):
        net = built(n=128)
        victims = kill(net, 38)  # ~30%
        apply_failure_step(net, victims, PAPER_POLICY)
        alive = net.alive_ids()
        rng = np.random.default_rng(1)
        ok = 0
        for _ in range(40):
            o, t = (int(x) for x in rng.choice(alive, 2, replace=False))
            ok += net.lookup_sync(o, t, "G").found
        assert ok >= 30  # >= 75% at 30% dead

    def test_policies_ordered_by_strength(self):
        """More healing -> no worse success rate."""
        rates = {}
        for name, policy in [("purge", PURGE_ONLY_POLICY),
                             ("paper", PAPER_POLICY),
                             ("full", FULL_POLICY)]:
            net = built(n=128)
            victims = kill(net, 38)
            apply_failure_step(net, victims, policy)
            alive = net.alive_ids()
            rng = np.random.default_rng(1)
            ok = 0
            for _ in range(40):
                o, t = (int(x) for x in rng.choice(alive, 2, replace=False))
                ok += net.lookup_sync(o, t, "G").found
            rates[name] = ok
        # Small-n batches are noisy; allow generous slack on the ordering.
        assert rates["purge"] <= rates["paper"] + 6
        assert rates["paper"] <= rates["full"] + 6
        # But the weakest policy must not beat the strongest.
        assert rates["purge"] <= rates["full"] + 4

    def test_full_policy_forgets_every_victim(self):
        net = built()
        victims = kill(net, 10)
        apply_failure_step(net, victims, FULL_POLICY)
        for i, node in net.nodes.items():
            if net.network.is_up(i):
                assert set(victims).isdisjoint(node.table.all_known())

    @pytest.mark.parametrize("heal", [apply_failure_step])
    def test_no_victim_list_means_scan_for_every_dead_peer(self, heal):
        """``None`` (the default) is a full scan, as in ``purge_dead``."""
        scanned, told = built(n=200), built(n=200)
        victims = kill(scanned, 20)
        kill(told, 20)
        assert known_dead(scanned) > 0
        heal(scanned)
        heal(told, newly_failed=victims)
        assert known_dead(scanned) == 0
        assert table_state(scanned) == table_state(told)

    def test_an_empty_victim_list_means_nobody_new_died(self):
        net = built(n=200)
        kill(net, 20)
        dead_before = known_dead(net)
        apply_failure_step(net, (), PURGE_ONLY_POLICY)
        assert known_dead(net) == dead_before > 0


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_step_pauses_the_collector_and_restores_the_callers_setting(
            self, enabled, collector_state, monkeypatch):
        net = built()
        victims = kill(net, 6)
        (gc.enable if enabled else gc.disable)()
        during = []

        def spying_gossip(net):
            during.append(gc.isenabled())
            gossip_round(net)

        monkeypatch.setattr("repro.core.repair.gossip_round", spying_gossip)
        apply_failure_step(net, victims)
        assert during == [False]
        assert gc.isenabled() == enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_failed_step_still_restores_the_collector(
            self, enabled, collector_state, monkeypatch):
        net = built()
        victims = kill(net, 6)
        (gc.enable if enabled else gc.disable)()

        def failing_gossip(net):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.core.repair.gossip_round", failing_gossip)
        with pytest.raises(RuntimeError, match="boom"):
            apply_failure_step(net, victims)
        assert gc.isenabled() == enabled

    def test_no_collector_pass_starts_inside_a_step(self, collector_state, monkeypatch):
        net = built(n=500)
        victims = kill(net, 30)
        gc.enable()
        starts, inside = [], []

        def watch(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        @contextmanager
        def marking_pause():
            with paused_collector():
                yield
                inside.append(len(starts))  # the step's last act, still paused

        monkeypatch.setattr("repro.core.repair.paused_collector", marking_pause)
        gc.callbacks.append(watch)
        try:
            apply_failure_step(net, victims)
            [[] for _ in range(5000)]  # the watch does see passes
        finally:
            gc.callbacks.remove(watch)
        assert inside == [0]
        assert starts


#: sha256 over :func:`table_state`, the post-burst lookups (found, hops,
#: path) and the datagram count after each of three bursts of 20 crashes on
#: the 200-node seed-7 overlay — recorded on the commit *before* the sweeps
#: were rewritten for speed, so any drift in entries, ``last_seen``, role-set
#: iteration order or routing shows up here.
PINNED_BURST_DIGESTS = {
    "paper": ("0f437d0889241b93", "152ee5dfda90276a", "1bc58760faff7fec"),
    "full": ("f5007507d247677b", "b665701d13b19b94", "c72c97b3fd241d50"),
    "purge_only": ("60e454fba19ecb36", "6bcfb196daa3e357", "d2a24fb55c42a3da"),
}


#: The same digest **plus** ``sum(table.version)`` at benchmark size (seed 9;
#: five bursts of 300 on N = 5 000 under the paper policy, four of 120 on
#: N = 2 000 under the other two) — recorded on the commit before
#: ``gossip_round`` imported role sets in bulk and shared ``parents`` and
#: the per-level children with its snapshot.  The version sum pins what the
#: digest cannot see: how many times each table told its views to rebuild.
PINNED_LARGE_BURSTS = {
    "paper": (("c8d759d8c3ec3ad4", 162619), ("a81461dcca54d8d4", 209087),
              ("66c7e38e57f154be", 252047), ("ea21e01d0732ce6f", 291141),
              ("83d0c03938a8d336", 326669)),
    "full": (("2b614c99cbafddb0", 72708), ("ff7f7ef5175caa5b", 98870),
             ("b261ec416aa8dacc", 123686), ("5f1286a4d1eb9c5f", 147408)),
    "purge_only": (("2b149940ff9185f8", 47258), ("0ad389ec96b51e9b", 48655),
                   ("2aa9c75258114af5", 50338), ("b89b5df5cf5f9ecf", 52497)),
}


class TestPinnedSemantics:
    @pytest.mark.parametrize("name,policy", [("paper", PAPER_POLICY),
                                             ("full", FULL_POLICY),
                                             ("purge_only", PURGE_ONLY_POLICY)])
    def test_three_bursts_reproduce_recorded_state(self, name, policy):
        net = built(n=200)
        order = [int(v) for v in np.random.default_rng(3).permutation(net.ids)]
        probes = np.random.default_rng(5)
        digests = []
        for burst in range(3):
            step = order[burst * 20:(burst + 1) * 20]
            net.fail_nodes(step)
            apply_failure_step(net, step, policy)
            assert known_dead(net) == 0
            alive = net.alive_ids()
            lookups = []
            for k in range(12):
                o, t = (int(x) for x in probes.choice(alive, 2, replace=False))
                r = net.lookup_sync(o, t, "G" if k % 2 else "NGSA")
                lookups.append((r.found, r.hops, r.path))
            state = (table_state(net), lookups, net.network.stats.sent)
            digests.append(hashlib.sha256(repr(state).encode()).hexdigest()[:16])
        assert tuple(digests) == PINNED_BURST_DIGESTS[name]

    @pytest.mark.parametrize("name,policy,n,size", [
        ("paper", PAPER_POLICY, 5000, 300),
        ("full", FULL_POLICY, 2000, 120),
        ("purge_only", PURGE_ONLY_POLICY, 2000, 120)])
    def test_large_bursts_reproduce_recorded_state_and_versions(self, name, policy, n, size):
        net = built(n=n, seed=9)
        order = [int(v) for v in np.random.default_rng(3).permutation(net.ids)]
        probes = np.random.default_rng(5)
        got = []
        for burst in range(len(PINNED_LARGE_BURSTS[name])):
            step = order[burst * size:(burst + 1) * size]
            net.fail_nodes(step)
            apply_failure_step(net, step, policy)
            assert known_dead(net) == 0
            alive = net.alive_ids()
            lookups = []
            for k in range(12):
                o, t = (int(x) for x in probes.choice(alive, 2, replace=False))
                r = net.lookup_sync(o, t, "G" if k % 2 else "NGSA")
                lookups.append((r.found, r.hops, r.path))
            state = (table_state(net), lookups, net.network.stats.sent)
            got.append((hashlib.sha256(repr(state).encode()).hexdigest()[:16],
                        sum(node.table.version for node in net.nodes.values())))
        assert tuple(got) == PINNED_LARGE_BURSTS[name]

    @pytest.mark.parametrize("incremental", [False, True])
    def test_purge_returns_entries_removed(self, incremental):
        net = built(n=200)
        victims = kill(net, 30)
        expected = known_dead(net)
        assert expected > 0
        got = purge_dead(net, newly_dead=victims) if incremental else purge_dead(net)
        assert got == expected
        assert known_dead(net) == 0


class TestRepairPolicy:
    def test_paper_policy_values(self):
        assert PAPER_POLICY.relink
        assert not PAPER_POLICY.adopt_parents
        assert PAPER_POLICY.gossip_rounds == 1

    def test_policies_frozen(self):
        with pytest.raises(Exception):
            PAPER_POLICY.gossip_rounds = 5  # type: ignore[misc]
