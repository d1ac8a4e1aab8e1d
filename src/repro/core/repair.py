"""Self-healing: what the paper's maintenance converges to after failures.

TreeP's robustness (§III.c/d) comes from cheap replication: every node also
knows its *indirect* neighbours (neighbours of neighbours), the children of
its bus neighbours, and its parent's neighbours (superior list).  Entries are
timestamped; when a peer dies, its keep-alives stop, the timestamps lapse and
every entry pointing at it is deleted — so at measurement time dead peers
are *known dead* and the router never selects them.  Failures are therefore
**structural**: a lookup fails when no surviving entry can make progress
(a region's parent chain is gone, or the network has partitioned), which is
exactly the behaviour §IV reports (≈10% failed lookups at 30% dead nodes,
rising as the topology disintegrates).

Two ways to run the healing between failure bursts:

* **Protocol mode** — :class:`~repro.core.maintenance.MaintenanceManager`
  expires entries as keep-alives stop arriving and calls
  :func:`relink_node`; gossip happens through the delta exchange.
  Message-accurate but needs many simulated seconds per step.
* **Converged mode** — :func:`apply_failure_step` applies the *fixed point*
  of that process directly, under a :class:`RepairPolicy` that says which
  healing mechanisms the maintenance window is long enough to complete.
  The experiment harness uses this so sweeps over thousands of nodes stay
  fast; an integration test asserts protocol mode converges to an
  equivalent table state on small networks.  A step expires the peers
  named in *newly_failed* (``()`` = nobody new died, heal only; ``None``,
  the default, scans for every down peer), makes no cyclic garbage and
  runs with the cyclic collector paused.

The paper's sweep deliberately stresses the overlay: failures accumulate
with no repopulation and *no new promotions* — the surviving hierarchy only
relinks laterally.  :data:`PAPER_POLICY` encodes that; the ablation benches
flip individual knobs (e.g. parent re-adoption) to quantify each mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.routing_table import Preimages
from repro.core.treep import paused_collector

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode
    from repro.core.treep import TreePNetwork


@dataclass(frozen=True)
class RepairPolicy:
    """Which healing mechanisms complete within one maintenance window.

    Attributes
    ----------
    relink:
        Survivors re-establish level-0 left/right links to the nearest peer
        they still know (uses the indirect-neighbour replication), and the
        same lateral links on every level bus.
    adopt_parents:
        Orphans re-attach to the nearest surviving peer one level up.  The
        paper's stress sweep leaves this to the (disabled) promotion
        machinery, so the default paper policy turns it off.
    gossip_rounds:
        How many §III.d exchange rounds fit in the window (spreads
        indirect-neighbour knowledge one hop per round; every round also
        re-exchanges bus neighbours' children lists, letting an uncle
        route down into an orphaned cell).
    """

    relink: bool = True
    adopt_parents: bool = False
    gossip_rounds: int = 1


#: The maintenance the paper's sweep cadence allows: lateral healing only.
PAPER_POLICY = RepairPolicy()

#: Everything on — used by the churn example and the ablation benches.
FULL_POLICY = RepairPolicy(adopt_parents=True, gossip_rounds=2)

#: Nothing but entry expiry — lower bound for ablations.
PURGE_ONLY_POLICY = RepairPolicy(relink=False, gossip_rounds=0)


# --------------------------------------------------------------------------
# node-local relinking (used by both modes)
# --------------------------------------------------------------------------

def _nearest_sides(ids: Iterable[int], around: int) -> tuple[Optional[int], Optional[int]]:
    """Nearest known ID strictly below and strictly above *around*."""
    left: Optional[int] = None
    right: Optional[int] = None
    for i in ids:
        if i < around and (left is None or i > left):
            left = i
        elif i > around and (right is None or i < right):
            right = i
    return left, right


def relink_node(node: "TreePNode", policy: RepairPolicy) -> None:
    """Recompute the node's maintained links from surviving knowledge.

    Strictly node-local: candidates are the entries still present in the
    node's own routing table (dead peers were expired by the keep-alive
    TTL before this runs).
    """
    t = node.table
    ident = node.ident

    if policy.relink:
        left, right = _nearest_sides(t.all_known(), ident)
        t.set_role("level0", {i for i in (left, right) if i is not None})
        # Keep the paper's minimum-two-connections rule at bus endpoints.
        if len(t.level0) < 2:
            same_side = sorted(
                (i for i in t.all_known() if i not in t.level0),
                key=lambda i: abs(i - ident),
            )
            for i in same_side[: 2 - len(t.level0)]:
                t.link("level0", i)

        for lvl in range(1, node.max_level + 1):
            l, r = _nearest_sides(
                (e.ident for e in t.candidates() if e.max_level >= lvl), ident)
            t.set_level(lvl, {i for i in (l, r) if i is not None})

    if policy.adopt_parents:
        want_level = node.max_level + 1
        if t.parents.get(want_level) is None:
            ups = [e.ident for e in t.candidates() if e.max_level >= want_level]
            if ups:
                new_parent = min(ups, key=lambda i: abs(i - ident))
                t.set_parent(want_level, new_parent, node.sim.now)


# --------------------------------------------------------------------------
# converged-mode primitives (harness use)
# --------------------------------------------------------------------------

def purge_dead(net: "TreePNetwork", newly_dead: Optional[Iterable[int]] = None) -> int:
    """Delete every entry pointing at a down peer from every live table.

    Equivalent to letting every keep-alive TTL lapse; returns entries
    removed.  Pass *newly_dead* to restrict the scan to peers that failed
    since the last purge (gossip never re-imports dead peers, so
    incremental purging is exact and much cheaper on large sweeps).
    """
    removed = 0
    if newly_dead is not None:
        dead = {i for i in newly_dead if not net.network.is_up(i)}
    else:
        dead = {i for i in net.ids if not net.network.is_up(i)}
    if not dead:
        return 0
    for ident, node in net.nodes.items():
        if ident in dead:
            continue
        hits = dead.intersection(node.table.all_known())
        if hits:
            for d in hits:
                node.table.forget(d)
            removed += len(hits)
    return removed


def gossip_round(net: "TreePNetwork") -> None:
    """One §III.d exchange round along surviving maintained links.

    Each live node imports, into the matching table role:

    * from its level-0 links: the peers' own level-0 links (indirect
      neighbour knowledge);
    * from its bus links at level ``i``: the peers' bus links (indirect
      same-level) and the peers' children (the neighbour-children table);
    * from its parent (when one survives): the parent's ancestors and bus
      links (the superior-node list of Figure 2).

    Entries backing no role afterwards are trimmed, keeping table sizes
    within the §III.e bounds instead of accumulating gossip forever.
    """
    now = net.sim.now
    # Information moves one hop per round, matching one keep-alive exchange,
    # not transitively within a round, so every peer is read as the round
    # found it — in place, not copied.  A round installs a new role set
    # (``set_role`` / ``set_level``) instead of writing one, so holding a set
    # is holding the pre-round set; ``level_tables`` is the dict ``set_level``
    # writes, hence the shallow copy; ``parents`` and ``level_children`` a
    # round never writes.  A held set is iterated through a copy made as it
    # is read, which iterates as a copy made up front would: a copy of a set
    # that has seen discards may iterate in another order than the set, that
    # order decides the order new entries are inserted in, and the digests
    # pin the copy's.
    snapshot: dict[int, tuple] = {}
    for ident, node in net.nodes.items():
        if not net.network.is_up(ident):
            continue
        t = node.table
        snapshot[ident] = (
            t.level0,
            dict(t.level_tables),
            t.level_children,
            t.parents,
            t.superiors,
            (node.max_level, node.score, node.nc),
            t,
        )
    # A peer's metadata is read from its own entries.  None leaves a table
    # before the trim pass after the loop, a role names only ids its table
    # holds entries for, and ``before`` keeps the pre-round value of any
    # metadata the round changes.
    before: Preimages = {}

    for ident, snap in snapshot.items():
        node = net.nodes[ident]
        t = node.table
        my_level0, my_buses, _, my_parents, _, _, _ = snap

        # Level-0 exchange: refresh the link, learn the peer's links.
        new_indirect: set[int] = set()
        links = set(my_level0)
        for peer in links:
            ps = snapshot.get(peer)
            if ps is None:
                continue
            p_level0, _, _, _, _, pme, pt = ps
            t.refresh(peer, now, pme, before)
            t.import_role(set(p_level0), now, pt, new_indirect, before)
        if new_indirect:
            t.set_role("level0_indirect", new_indirect - t.level0)

        # Bus exchanges per level.  Each level table is *rebuilt* as direct
        # links + one-hop indirect (the peers' own links): like the other
        # replicated roles it must not accumulate transitively across
        # rounds, or table sizes would leave the §III.e bounds.
        fresh_nc: set[int] = set()
        any_bus_exchange = False
        for lvl, bus_entries in my_buses.items():
            # Exchange only on *maintained* connections: the nearest bus
            # neighbour on each side.  Everything else in the level table
            # is indirect knowledge, not an active edge (§III.a).
            l, r = _nearest_sides(bus_entries, ident)
            bus_links = {i for i in (l, r) if i is not None}
            fresh_level: set[int] = set()
            for peer in bus_links:
                ps = snapshot.get(peer)
                if ps is None:
                    continue
                _, p_buses, p_children, _, _, pme, pt = ps
                t.refresh(peer, now, pme, before)
                fresh_level.add(peer)
                t.import_role(set(p_buses.get(lvl, ())), now, pt, fresh_level, before)
                t.import_role(p_children.get(lvl, ()), now, pt, fresh_nc, before)
            if fresh_level:
                any_bus_exchange = True
                t.set_level(lvl, fresh_level)
        if any_bus_exchange:
            t.set_role("neighbour_children", fresh_nc)

        # Parent exchange: ancestors + parent's bus links -> superiors.
        p = my_parents.get(node.max_level + 1)
        ps = snapshot.get(p) if p is not None else None
        if ps is not None:
            _, p_buses, _, p_parents, p_superiors, pme, pt = ps
            new_sup: set[int] = set()
            for group in (p_parents.values(), set(p_superiors),
                          set(p_buses.get(pme[0], ()))):
                t.import_role(group, now, pt, new_sup, before)
            t.set_role("superiors", new_sup)

    # A table's trim depends only on its own final roles, so trimming after
    # the loop leaves what trimming each node after its exchange would.
    for ident in snapshot:
        net.nodes[ident].table.trim_to_roles()


def _sync_children(net: "TreePNetwork") -> None:
    """Make parent/child views consistent after adoptions (ChildReport)."""
    now = net.sim.now
    for ident, node in net.nodes.items():
        if not net.network.is_up(ident):
            continue
        lvl = node.max_level + 1
        p = node.table.parents.get(lvl)
        if p is None or not net.network.is_up(p):
            continue
        parent = net.nodes.get(p)
        if parent is None or parent.max_level < lvl:
            continue
        parent.table.add_child(lvl, ident, now, max_level=node.max_level,
                               score=node.score, nc=node.nc)


# --------------------------------------------------------------------------
# converged-mode drivers
# --------------------------------------------------------------------------

def _symmetrize_links(net: "TreePNetwork") -> None:
    """Make relinked connections mutual.

    Adopting a link starts with a Hello handshake (§III.d first contact),
    so the adopted peer always learns the adopter: if A linked B at level
    0, B gains A's entry and — both being each other's nearest known —
    links back on its next relink pass.
    """
    now = net.sim.now
    up = net.network.is_up
    for ident, node in net.nodes.items():
        if not up(ident):
            continue
        meta = (node.max_level, node.score, node.nc)
        for peer in node.table.level0:
            pn = net.nodes.get(peer)
            if pn is not None and up(peer):
                pn.table.add("level0_indirect", ident, now, *meta)
        for lvl, ids in node.table.level_tables.items():
            for peer in ids:
                pn = net.nodes.get(peer)
                if pn is not None and up(peer) and pn.max_level >= lvl:
                    pn.table.add_level(lvl, ident, now, *meta)


def apply_failure_step(
    net: "TreePNetwork",
    newly_failed: Optional[Iterable[int]] = None,
    policy: RepairPolicy = PAPER_POLICY,
) -> None:
    """One step of the paper's sweep: expire *newly_failed* (``None`` =
    every down peer, as :func:`purge_dead` reads it), heal per *policy*."""
    with paused_collector():
        purge_dead(net, newly_failed)
        up = net.network.is_up
        live_nodes = [n for i, n in net.nodes.items() if up(i)]
        for node in live_nodes:
            relink_node(node, policy)
        _symmetrize_links(net)
        for node in live_nodes:
            relink_node(node, policy)
        for _ in range(max(0, policy.gossip_rounds)):
            gossip_round(net)
            for node in live_nodes:
                relink_node(node, policy)
        if policy.adopt_parents:
            _sync_children(net)
