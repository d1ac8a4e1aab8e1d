"""Shared fixtures: small prebuilt networks, deterministic RNG, and the
greedy router's reference."""

from __future__ import annotations

import contextlib
import gc
from math import inf
from unittest import mock

import numpy as np
import pytest

from reference import entry
from repro import TreePConfig, TreePNetwork
from repro.core import node as node_module
from repro.core.distance import treep_distance
from repro.core.lookup import Decision, DecisionKind, _closest_child, _escalate


@pytest.fixture(scope="module")
def small_net() -> TreePNetwork:
    """A 64-node case-1 network shared by read-only tests."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=7)
    net.build(64)
    return net


@pytest.fixture()
def fresh_net() -> TreePNetwork:
    """A private 64-node network for tests that mutate state."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=7)
    net.build(64)
    return net


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def collector_state():
    """Hand the test runner's collector setting back whatever the test did."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def fig3_candidates(table, level_zero):
    """The ids Fig. 3 scans, in its order: ``Search_Level_Zero()`` (level-0
    neighbours and both kinds of children, by id) or ``Search_level_A()``
    (children, neighbour-children, buses top-down, parents, superiors,
    level-0; each group by id, first occurrence kept).  Only ids the table
    has an entry for are candidates."""
    if level_zero:
        groups = [sorted(set(table.level0) | table.children | table.neighbour_children)]
    else:
        groups = [sorted(table.children), sorted(table.neighbour_children)]
        groups += [sorted(table.level_tables[lvl])
                   for lvl in sorted(table.level_tables, reverse=True)]
        groups += [sorted(set(table.parents.values())), sorted(table.superiors),
                   sorted(table.level0)]
    ordered = []
    for group in groups:
        ordered += [i for i in group if i not in ordered and entry(table, i) is not None]
    return ordered


def reference_greedy(view, req):
    """One G step the slow, literal way: the metric of every candidate off
    the path — ``treep_distance``, or ``|x - id|`` once the TTL passes the
    height — and the first minimum in Fig. 3 order, then Fig. 3's
    forwarding cascade.  Escalation and ``Closest_Child`` are the router's
    own: they are not what this reference checks."""
    cfg, t, x = view.config, view.table, req.target
    if req.ttl > cfg.ttl_max:
        return Decision(DecisionKind.DISCARD)
    if x == view.ident or entry(t, x) is not None:
        return Decision(DecisionKind.FOUND, None, x)
    euclid = cfg.euclidean_fallback and req.ttl > view.height
    level_zero = req.from_parent_level == 1 and view.max_level == 0

    def metric(ident, level):
        if euclid:
            return abs(ident - x)
        return treep_distance(cfg.space, ident, level, x, view.height)

    exclude = frozenset(req.path + (view.ident,))
    best, best_d = None, inf
    for ident in fig3_candidates(t, level_zero):
        d = metric(ident, entry(t, ident).max_level)
        if ident not in exclude and d < best_d:
            best, best_d = ident, d
    d_here = metric(view.ident, view.max_level)
    if best is not None and (level_zero or best_d <= d_here / 2 or view.max_level == 0
                             or req.from_parent_level == view.max_level + 1):
        return Decision(DecisionKind.FORWARD, best)
    if best is None and level_zero:
        return Decision(DecisionKind.NOT_FOUND)
    # Fig. 3's fallbacks: escalate before descending when a candidate was
    # found but not taken, descend before escalating when there was none.
    moves = [lambda: _escalate(view, req, exclude, euclid, d_here),
             lambda: _closest_child(view, x, exclude)]
    for move in moves if best is not None else moves[::-1]:
        nxt = move()
        if nxt is not None:
            return Decision(DecisionKind.FORWARD, nxt)
    return Decision(DecisionKind.NOT_FOUND)


@pytest.fixture(scope="session")
def greedy_reference():
    return reference_greedy


@pytest.fixture(scope="session")
def fig3_order():
    return fig3_candidates


@pytest.fixture(scope="session")
def every_greedy_hop_checked():
    """``with every_greedy_hop_checked() as hops:`` — while open, every
    greedy ``route()`` a node makes must equal :func:`reference_greedy`, and
    so must the same request with its TTL moved past the height (the
    Euclidean metric); ``hops[0]`` counts the decisions compared."""
    @contextlib.contextmanager
    def checking():
        real = node_module.route
        hops = [0]

        def checked(view, req):
            decision = real(view, req)
            if req.algo == "G":
                assert decision == reference_greedy(view, req), (view.ident, req)
                late = req._replace(ttl=req.ttl + view.height + 1)
                assert real(view, late) == reference_greedy(view, late), (view.ident, late)
                hops[0] += 2
            return decision

        with mock.patch.object(node_module, "route", checked):
            yield hops
    return checking
