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

* **Protocol mode** — each :class:`~repro.core.node.TreePNode`'s
  keep-alive loop expires entries as keep-alives stop arriving; gossip
  happens through the delta exchange.  Nothing there calls
  :func:`relink_node` yet (ROADMAP item 1(b)), so only expiry heals.
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

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.routing_table import SharedIds
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

def relink_node(node: "TreePNode", policy: RepairPolicy) -> None:
    """Recompute the node's maintained links from surviving knowledge.

    Strictly node-local: candidates are the entries still present in the
    node's own routing table (dead peers were expired by the keep-alive
    TTL before this runs).

    One walk over the table's ids, sorted once: level 0's nearest known
    peer on each side sits either side of the node's own id, and a bus
    level's is the first peer outward whose ``max_level`` reaches it.  A
    peer at level ``L`` is the nearest for every level up to ``L`` not
    filled by a nearer one, so walking outward on each side until the
    node's top level is filled links every bus at once.
    """
    t = node.table
    ident = node.ident

    if policy.relink:
        ids = sorted(t._entries)
        n = len(ids)
        hi = bisect_left(ids, ident)  # ids[:hi] below the node, ids[hi:] above
        if 0 < hi < n:
            t.set_role("level0", (ids[hi - 1], ids[hi]))
        elif n:
            # A bus endpoint: keep the paper's minimum-two-connections rule
            # with the two nearest peers on the one side there is.
            t.set_role("level0", (ids[hi - 1] if hi else ids[0],))
            if n > 1:
                t.link("level0", ids[hi - 2] if hi else ids[1])
        else:
            t.set_role("level0", ())

        top = node.max_level
        if top:
            meta, book = t._meta, t._book
            # nearest peer per level on each side, nearest first; [0] unused
            lefts, rights = [None] * (top + 1), [None] * (top + 1)
            for outward, nearest in ((reversed(ids[:hi]), lefts), (ids[hi:], rights)):
                need = 1
                for i in outward:
                    lvl = (meta.get(i) or book[i])[0]
                    if lvl >= need:
                        if lvl >= top:
                            nearest[need:] = [i] * (top + 1 - need)
                            break
                        nearest[need:lvl + 1] = [i] * (lvl + 1 - need)
                        need = lvl + 1
            for lvl, l, r in zip(range(1, top + 1), lefts[1:], rights[1:]):
                t.set_level(lvl, (l, r) if l is not None and r is not None
                            else [i for i in (l, r) if i is not None])

    if policy.adopt_parents:
        want_level = node.max_level + 1
        if t.parents.get(want_level) is None:
            ups = t.at_or_above(want_level)
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
    book = net.book
    # Information moves one hop per round, matching one keep-alive exchange,
    # not transitively within a round, so every peer is read as the round
    # found it — in place, not copied.  A round installs a new role set
    # (``set_role`` / ``set_level``) instead of writing one, so holding a set
    # is holding the pre-round set; ``level_tables`` is the dict ``set_level``
    # writes, hence the shallow copy (not of the shared empty map most nodes
    # hold, which nothing writes); ``parents`` and ``level_children`` a
    # round never writes.  A held set is iterated through a copy made as it
    # is read, which iterates as a copy made up front would: a copy of a set
    # that has seen discards may iterate in another order than the set, that
    # order decides the order new entries are inserted in, and the digests
    # pin the copy's.  A peer's metadata for an id is its override as the
    # round found it, else the network's book: ``overrides()`` copies a
    # table's overrides (none on a converged overlay, so usually nothing),
    # because the round may write them.  A peer's metadata for itself is
    # read once, and held as ``None`` when it is the book's, so refreshing
    # the peer's entry moves only a timestamp.  Siblings read one parent
    # snapshot, so they import one superior list in one order, which the
    # round installs as one shared set per parent: ``SharedIds(new_sup)``
    # iterates as the ``set(new_sup)`` copy each sibling used to get.
    snapshot: dict[int, tuple] = {}
    superior_lists: dict[int, list] = {}
    shared_superiors: dict[int, SharedIds] = {}
    down = net.network._down  # every node is registered: up == not down
    for ident, node in net.nodes.items():
        if ident in down:
            continue
        t = node.table
        levels = t.level_tables
        # ``capacity.score()``: the ``score`` property's value, one frame less
        mine = (node.max_level, node.capacity.score(), node.nc)
        snapshot[ident] = (
            t,
            t.level0,
            dict(levels) if levels else levels,
            t.level_children,
            t.parents,
            t.superiors,
            mine[0],
            None if mine == book.get(ident) else mine,
            t.overrides(),
        )

    for ident, (t, my_level0, my_buses, _, my_parents, _, my_level, _, _) in snapshot.items():
        # Level-0 exchange: refresh the link, learn the peer's links.
        new_indirect: set[int] = set()
        links = set(my_level0)
        for peer in links:
            ps = snapshot.get(peer)
            if ps is None:
                continue
            _, p_level0, _, _, _, _, _, p_meta, theirs = ps
            t.refresh(peer, now, p_meta)
            t.import_role(set(p_level0), now, theirs, new_indirect)
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
            bus = sorted(bus_entries)
            k = bisect_left(bus, ident)  # bus[:k] below the node, bus[k:] above
            if 0 < k < len(bus):
                bus_links = {bus[k - 1], bus[k]}
            else:  # one side, or none
                bus_links = bus[k - 1:k] if k else bus[:1]
            fresh_level: set[int] = set()
            for peer in bus_links:
                ps = snapshot.get(peer)
                if ps is None:
                    continue
                _, _, p_buses, p_children, _, _, _, p_meta, theirs = ps
                t.refresh(peer, now, p_meta)
                fresh_level.add(peer)
                t.import_role(set(p_buses.get(lvl, ())), now, theirs, fresh_level)
                t.import_role(p_children.get(lvl, ()), now, theirs, fresh_nc)
            if fresh_level:
                any_bus_exchange = True
                t.set_level(lvl, fresh_level)
        if any_bus_exchange:
            t.set_role("neighbour_children", fresh_nc)

        # Parent exchange: ancestors + parent's bus links -> superiors.
        p = my_parents.get(my_level + 1)
        ps = snapshot.get(p) if p is not None else None
        if ps is not None:
            _, _, p_buses, _, p_parents, p_superiors, p_level, _, theirs = ps
            adds = superior_lists.get(p)
            if adds is None:  # read once per parent, for every sibling
                adds = superior_lists[p] = [*p_parents.values(), *set(p_superiors),
                                            *set(p_buses.get(p_level, ()))]
            new_sup: set[int] = set()
            t.import_role(adds, now, theirs, new_sup)
            if ident in adds:  # a list that names the node: its own set
                t.set_role("superiors", new_sup)
            else:  # every sibling's list: the first one's, shared
                shared = shared_superiors.get(p)
                if shared is None:
                    shared = shared_superiors[p] = SharedIds(new_sup)
                t.set_role("superiors", shared)

        # The round writes no other table, and no peer reads this one's
        # entries, only its held roles and overrides: its roles are final,
        # so trim it now, while it is still in cache.
        t.trim_to_roles()


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
    links back on its next relink pass.  The fabric's down set is read
    once for the sweep, and each node's metadata once.
    """
    now = net.sim.now
    nodes, book = net.nodes, net.book
    down = net.network._down  # every node is registered: up == not down
    for ident, node in nodes.items():
        if ident in down:
            continue
        t = node.table
        # ``capacity.score()``: the ``score`` property's value, one frame less
        mine = (node.max_level, node.capacity.score(), node.nc)
        if mine == book.get(ident):
            mine = None  # the book's: a known entry moves only its timestamp
        for peer in t.level0:
            if peer not in down:
                pn = nodes.get(peer)
                if pn is not None:
                    pt = pn.table
                    pt.refresh(ident, now, mine)
                    pt.link("level0_indirect", ident)
        for lvl, ids in t.level_tables.items():
            for peer in ids:
                if peer not in down:
                    pn = nodes.get(peer)
                    if pn is not None and pn.max_level >= lvl:
                        pt = pn.table
                        pt.refresh(ident, now, mine)
                        pt.add_level(lvl, ident, now)  # the entry is fresh


def apply_failure_step(
    net: "TreePNetwork",
    newly_failed: Optional[Iterable[int]] = None,
    policy: RepairPolicy = PAPER_POLICY,
) -> None:
    """One step of the paper's sweep: expire *newly_failed* (``None`` =
    every down peer, as :func:`purge_dead` reads it), heal per *policy*.

    The sweeps run in a fixed order — purge, relink, symmetrize, relink,
    then each gossip round and a relink after it — over the nodes the
    fabric's down set leaves live, read once per sweep."""
    with paused_collector():
        purge_dead(net, newly_failed)
        down = net.network._down
        live_nodes = [n for i, n in net.nodes.items() if i not in down]
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
