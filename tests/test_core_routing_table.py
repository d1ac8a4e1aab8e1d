"""Unit + property tests for the six-table routing state."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import entries, entry, membership
from repro.core.routing_table import (_NO_LEVELS, _NO_ROLE, RoutingTable, SharedIds,
                                      SharedMap)


def roles_of(table, ident):
    """Role tags *ident* holds in *table*."""
    roles = {f"level{lvl}" for lvl, ids in table.level_tables.items() if ident in ids}
    for tag, ids in (("level0", table.level0), ("level0-indirect", table.level0_indirect),
                     ("child", table.children), ("neighbour-child", table.neighbour_children),
                     ("parent", table.parents.values()), ("superior", table.superiors)):
        if ident in ids:
            roles.add(tag)
    return roles


@pytest.fixture()
def table():
    return RoutingTable(owner=1000)


def test_upsert_creates_and_refreshes(table):
    table.upsert(5, now=1.0, max_level=2, score=3.0)
    assert entry(table, 5).as_tuple() == (5, 2, 3.0, 4, 1.0)
    table.upsert(5, now=2.0, score=4.0)
    assert entry(table, 5).as_tuple() == (5, 2, 4.0, 4, 2.0)
    assert table.size() == 1


def test_self_entry_rejected(table):
    with pytest.raises(ValueError):
        table.upsert(1000, now=0.0)


def test_touch_never_regresses(table):
    table.upsert(5, now=5.0)
    table.touch(5, 3.0)
    assert entry(table, 5).last_seen == 5.0
    table.touch(5, 7.0)
    assert entry(table, 5).last_seen == 7.0


def test_roles_tracked(table):
    table.add("level0", 1, 0.0)
    table.add("level0_indirect", 2, 0.0)
    table.add_level(1, 3, 0.0)
    table.add_child(1, 4, 0.0)
    table.add("neighbour_children", 5, 0.0)
    table.set_parent(1, 6, 0.0)
    table.add("superiors", 7, 0.0)
    assert roles_of(table, 1) == {"level0"}
    assert roles_of(table, 2) == {"level0-indirect"}
    assert roles_of(table, 3) == {"level1"}
    assert roles_of(table, 4) == {"child"}
    assert roles_of(table, 5) == {"neighbour-child"}
    assert roles_of(table, 6) == {"parent"}
    assert roles_of(table, 7) == {"superior"}


def test_multiple_roles_one_entry(table):
    table.add("level0", 9, 1.0)
    table.add("superiors", 9, 2.0)
    assert table.size() == 1
    assert roles_of(table, 9) == {"level0", "superior"}
    assert entry(table, 9).last_seen == 2.0


def test_add_level_zero_rejected(table):
    with pytest.raises(ValueError):
        table.add_level(0, 5, 0.0)


def test_set_parent_level_validation(table):
    with pytest.raises(ValueError):
        table.set_parent(0, 5, 0.0)


def test_forget_removes_everywhere(table):
    table.add("level0", 5, 0.0)
    table.add_level(2, 5, 0.0)
    table.add_child(1, 5, 0.0)
    table.set_parent(3, 5, 0.0)
    table.add("superiors", 5, 0.0)
    table.forget(5)
    assert entry(table, 5) is None
    assert roles_of(table, 5) == set()
    assert table.parents == {}


def test_expire_drops_stale(table):
    table.add("level0", 1, now=0.0)
    table.add("level0", 2, now=10.0)
    stale = table.expire(now=15.0, entry_ttl=10.0)
    assert stale == [1]
    assert entry(table, 2) is not None and entry(table, 1) is None


def test_level1_parent(table):
    assert table.parents.get(1) is None
    table.set_parent(1, 77, 0.0)
    assert table.parents.get(1) == 77


def test_neighbours_at(table):
    table.add("level0", 1, 0.0)
    table.add_level(2, 5, 0.0)
    assert table.neighbours_at(0) == {1}
    assert table.neighbours_at(2) == {5}
    assert table.neighbours_at(9) == set()


def test_active_connections_excludes_replicated(table):
    table.add("level0", 1, 0.0)
    table.add_level(1, 2, 0.0)
    table.set_parent(2, 3, 0.0)
    table.add_child(1, 4, 0.0)
    table.add("superiors", 5, 0.0)            # replicated knowledge
    table.add("neighbour_children", 6, 0.0)     # replicated knowledge
    table.add("level0_indirect", 7, 0.0)     # replicated knowledge
    assert table.active_connections() == {1, 2, 3, 4}


def test_children_are_one_store_read_per_level_and_as_a_set(table):
    """``level_children`` lists each level's own children ascending, a
    childless level included; ``children`` is their union, and only it
    moves the version."""
    table.open_children(2)
    for ident in (30, 10, 20):
        table.add_child(1, ident, 0.0)
    table.add_child(1, 10, 1.0)
    assert table.level_children == {2: [], 1: [10, 20, 30]}
    assert table.children == {10, 20, 30} and table.version == 3
    table.add_child(2, 40, 0.0)
    table.add_child(2, 30, 0.0)             # listed at two levels
    table.unlink_child(20)
    assert table.level_children == {2: [30, 40], 1: [10, 30]}
    assert table.children == {10, 30, 40} and table.version == 5
    assert table.drop_children(1) == [10, 30]
    assert table.level_children == {2: [30, 40]}
    assert table.children == {30, 40} and table.version == 6
    table.forget(40)
    assert table.level_children == {2: [30]} and table.children == {30}
    assert 40 not in table.active_connections()


def test_trim_to_roles(table):
    table.add("level0", 1, 0.0)
    table.upsert(99, 0.0)  # metadata with no role
    assert table.size() == 2
    dropped = table.trim_to_roles()
    assert dropped == 1
    assert entry(table, 1) is not None and entry(table, 99) is None


def test_delta_since(table):
    table.add("level0", 1, now=1.0)
    table.add("level0", 2, now=5.0)
    delta = table.delta_since(2.0)
    assert [t[0] for t in delta] == [2]
    assert len(table.delta_since(0.0)) == 2


def test_merge_delta_skips_self_and_stale(table):
    table.upsert(5, now=10.0, score=1.0)
    merged = table.merge_delta(
        [(1000, 0, 1.0, 4, 20.0),   # self: skipped
         (5, 0, 9.9, 4, 5.0),       # older than ours: skipped
         (6, 1, 2.0, 4, 12.0)],     # new
        now=15.0,
    )
    assert merged == 1
    assert entry(table, 5).score == 1.0
    assert entry(table, 6).max_level == 1


def test_entry_as_tuple_roundtrip():
    """An entry ships as ``(id, max_level, score, nc, last_seen)`` and a
    table that merges the tuple holds the same entry."""
    a, b = RoutingTable(owner=1), RoutingTable(owner=2)
    a.upsert(3, 9.0, max_level=2, score=1.5, nc=4)
    assert a.delta_since(0.0) == [(3, 2, 1.5, 4, 9.0)]
    assert b.merge_delta(a.delta_since(0.0), now=10.0) == 1
    assert entries(b) == entries(a) == [(3, 2, 1.5, 4, 9.0)]


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["level0", "level", "child", "superior", "forget"]),
                  st.integers(0, 50)),
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_size_equals_distinct_known(ops):
    """size() always equals the number of distinct known peers, and the
    owner never appears."""
    t = RoutingTable(owner=999)
    known = set()
    for op, ident in ops:
        if ident == 999:
            continue
        if op == "forget":
            t.forget(ident)
            known.discard(ident)
        elif op == "level0":
            t.add("level0", ident, 0.0)
            known.add(ident)
        elif op == "level":
            t.add_level(1, ident, 0.0)
            known.add(ident)
        elif op == "child":
            t.add_child(1, ident, 0.0)
            known.add(ident)
        elif op == "superior":
            t.add("superiors", ident, 0.0)
            known.add(ident)
    assert t.size() == len(known)
    assert set(t.all_known()) == known
    assert 999 not in t.all_known()


_MUTATIONS = st.one_of(
    st.tuples(st.just("upsert"), st.integers(0, 40), st.integers(0, 3)),
    st.tuples(st.just("add_l0"), st.integers(0, 40), st.just(0)),
    st.tuples(st.just("add_child"), st.integers(0, 40), st.just(0)),
    st.tuples(st.just("set_parent"), st.integers(0, 40), st.integers(1, 3)),
    st.tuples(st.just("touch"), st.integers(0, 40), st.just(0)),
    st.tuples(st.just("forget"), st.integers(0, 40), st.just(0)),
    st.tuples(st.just("expire"), st.just(0), st.integers(0, 30)),
    st.tuples(st.just("trim_to_roles"), st.just(0), st.just(0)),
    st.tuples(st.just("merge_delta"), st.integers(0, 40), st.integers(0, 3)),
    st.tuples(st.just("discard_role"), st.integers(0, 40), st.just(0)),
)


@given(ops=st.lists(_MUTATIONS, max_size=80))
@settings(max_examples=150, deadline=None)
def test_property_membership_epoch_moves_iff_known_ids_change(ops):
    """The membership epoch moves iff ``set(_entries)`` changed — whatever
    mutator did it — and ``sorted_ids()`` is never stale.  ``version``
    cannot play this part: a role-less upsert and a trim leave it alone."""
    t = RoutingTable(owner=999)
    now = 0.0
    for op, ident, arg in ops:
        now += 1.0
        before_ids, before_epoch = set(t._entries), membership(t)
        before_view = t.sorted_ids()
        if op == "upsert":
            t.upsert(ident, now, max_level=arg)
        elif op == "add_l0":
            t.add("level0", ident, now)
        elif op == "add_child":
            t.add_child(1, ident, now)
        elif op == "set_parent":
            t.set_parent(arg, ident, now)
        elif op == "touch":
            t.touch(ident, now)
        elif op == "forget":
            t.forget(ident)
        elif op == "expire":
            t.expire(now, entry_ttl=float(arg))
        elif op == "trim_to_roles":
            t.trim_to_roles()
        elif op == "merge_delta":
            t.merge_delta([(ident, arg, 1.0, 4, now), (999, 0, 1.0, 4, now)], now)
        elif op == "discard_role":
            t.unlink("level0", ident)
            t.unlink("children", ident)
        changed = set(t._entries) != before_ids
        assert (membership(t) != before_epoch) == changed, (op, ident, arg)
        assert list(t.sorted_ids()) == sorted(t._entries)
        if not changed:
            assert t.sorted_ids() is before_view  # memo hit, no re-sort


def test_role_less_upsert_and_trim_move_the_epoch_but_not_the_version(table):
    table.add("level0", 7, 0.0)
    version, epoch = table.version, membership(table)
    table.upsert(8, 0.0)                    # gossip-learnt, no role
    assert table.version == version and membership(table) == epoch + 1
    assert list(table.sorted_ids()) == [7, 8]
    assert table.trim_to_roles() == 1       # drops 8 again
    assert table.version == version and membership(table) == epoch + 2
    assert list(table.sorted_ids()) == [7]


# ------------------------------------------------- one writer for role state
# The role containers are plain sets and dicts; the table's methods are their
# only writers and make every version bump.

_ROLE_SETS = ("level0", "level0_indirect", "children", "neighbour_children",
              "superiors")


@pytest.mark.parametrize("role", _ROLE_SETS)
def test_rebinding_a_role_set_bumps_version_once_and_wraps(table, role):
    """``set_role`` rebinds a whole role with one bump, into a set the table
    owns; later writes through the table stay versioned, no-ops stay free,
    and rebinding to empty leaves the role the shared sentinel again."""
    table.add("level0", 1, 0.0)
    before = table.version
    given = {5, 6}
    table.set_role(role, given)
    assert table.version == before + 1
    rebound = getattr(table, role)
    assert rebound == {5, 6} and rebound is not given
    given.add(9)                            # the caller's set stays the caller's
    assert 9 not in rebound
    table.link(role, 7)
    assert table.version == before + 2
    table.link(role, 7)                     # no-ops stay free
    table.unlink(role, 8)
    assert table.version == before + 2
    table.unlink(role, 7)
    assert table.version == before + 3 and getattr(table, role) == {5, 6}
    table.set_role(role, ())
    assert table.version == before + 4 and getattr(table, role) is _NO_ROLE


def test_rebinding_level_tables_and_parents_stays_versioned(table):
    before = table.version
    table.set_level(2, {8, 9})              # one bump per installed bus
    assert table.version == before + 1 and table.level_tables == {2: {8, 9}}
    table.unlink_level(2, 8)
    assert table.version == before + 2
    table.unlink_level(2, 8)                # no-ops stay free
    table.unlink_level(5, 9)
    assert table.version == before + 2
    table.set_level(3, {4})
    table.drop_level(3)
    assert table.version == before + 4 and table.level_tables == {2: {9}}
    table.drop_level(3)
    assert table.version == before + 4

    before = table.version
    table.set_parent(1, 50, 0.0)
    assert table.version == before + 1 and table.parents.get(1) == 50
    table.set_parent(1, 50, 0.0)            # same parent: no bump
    assert table.version == before + 1
    table.set_parent(1, 51, 0.0)
    assert table.version == before + 2
    assert table.drop_parent(1) == 51 and table.version == before + 3
    assert table.drop_parent(1) is None and table.version == before + 3


def test_epochs_are_read_only_and_the_table_has_no_instance_dict(table):
    assert not hasattr(table, "__dict__")
    for name in ("version", "membership"):
        with pytest.raises(AttributeError):
            setattr(table, name, 3)
    with pytest.raises(AttributeError):
        table.cache = {}


def _role_pairs(t):
    pairs = {(role, i) for role in _ROLE_SETS for i in getattr(t, role)}
    return pairs | {(f"bus{lvl}", i) for lvl, ids in t.level_tables.items() for i in ids}


_ADDERS = {
    "level0": lambda t, ident, now: t.add("level0", ident, now),
    "level0_indirect": lambda t, ident, now: t.add("level0_indirect", ident, now),
    "children": lambda t, ident, now: t.add_child(1, ident, now),
    "neighbour_children": lambda t, ident, now: t.add("neighbour_children", ident, now),
    "superiors": lambda t, ident, now: t.add("superiors", ident, now),
}
_LAZY = _ROLE_SETS + ("level_tables", "level_children")
_VERSION_MUTATIONS = st.one_of(
    _MUTATIONS,
    st.tuples(st.just("add_role"), st.integers(0, 40), st.sampled_from(_ROLE_SETS)),
    st.tuples(st.just("link"), st.integers(0, 40), st.sampled_from(_ROLE_SETS)),
    st.tuples(st.just("unlink"), st.integers(0, 40), st.sampled_from(_ROLE_SETS)),
    st.tuples(st.just("set_role"), st.integers(0, 40), st.sampled_from(_ROLE_SETS)),
    st.tuples(st.just("clear_role"), st.just(0), st.sampled_from(_ROLE_SETS)),
    st.tuples(st.just("add_level"), st.integers(0, 40), st.integers(1, 2)),
    st.tuples(st.just("set_level"), st.integers(0, 40), st.integers(1, 2)),
    st.tuples(st.just("unlink_level"), st.integers(0, 40), st.integers(1, 2)),
    st.tuples(st.just("drop_level"), st.just(0), st.integers(1, 2)),
    st.tuples(st.just("drop_parent"), st.just(0), st.integers(1, 3)),
    st.tuples(st.just("add_child_at"), st.integers(0, 40), st.integers(1, 2)),
    st.tuples(st.just("unlink_child"), st.integers(0, 40), st.just(0)),
    st.tuples(st.just("drop_children"), st.just(0), st.integers(1, 2)),
)


@given(ops=st.lists(_VERSION_MUTATIONS, max_size=80))
@settings(max_examples=200, deadline=None)
def test_property_version_counts_effective_role_and_level_changes(ops):
    """From all-empty roles, every effective-only mutator moves ``version``
    by exactly the number of (role, id) memberships that appeared or
    vanished, parent slots whose holder changed and peers whose level
    changed (plus one when ``add_level`` opens a bus; the per-level child
    lists move it only through ``children``); a whole-role write —
    ``set_role``, ``set_level``, or ``drop_level`` of a bus the table held —
    moves it by exactly one.  ``membership`` moves by at least one iff the
    known ids did.  Recorded against the self-counting containers the table
    methods replaced, and kept through allocation on first write: a role is
    the shared sentinel until its first write and again after a rebinding
    to empty, and installing its container bumps nothing."""
    t = RoutingTable(owner=999)
    written = set()
    now = 0.0
    for op, ident, arg in ops:
        now += 1.0
        roles, version, epoch = _role_pairs(t), t.version, membership(t)
        parents = dict(t.parents)
        levels = {i: t.meta(i)[0] for i in t.all_known()}
        buses = set(t.level_tables)
        whole = 0
        if op == "upsert":
            t.upsert(ident, now, max_level=arg)
        elif op == "add_l0":
            t.add("level0", ident, now)
            written.add("level0")
        elif op == "add_child":
            t.add_child(1, ident, now)
            written.update(("children", "level_children"))
        elif op == "add_child_at":
            t.add_child(arg, ident, now)
            written.update(("children", "level_children"))
        elif op == "unlink_child":
            t.unlink_child(ident)
        elif op == "drop_children":
            t.drop_children(arg)
        elif op == "add_role":
            _ADDERS[arg](t, ident, now)
            written.update((arg, "level_children") if arg == "children" else (arg,))
        elif op == "link":
            t.link(arg, ident)
            written.add(arg)
        elif op == "unlink":
            t.unlink(arg, ident)
        elif op == "set_role":
            t.set_role(arg, {ident})
            written.add(arg)
            whole = 1
        elif op == "clear_role":
            t.set_role(arg, ())
            written.discard(arg)
            whole = 1
        elif op == "add_level":
            t.add_level(arg, ident, now)
            written.add("level_tables")
            whole = arg not in buses
        elif op == "set_level":
            t.set_level(arg, {ident})
            written.add("level_tables")
            whole = 1
        elif op == "unlink_level":
            t.unlink_level(arg, ident)
        elif op == "drop_level":
            t.drop_level(arg)
            whole = int(arg in buses)
        elif op == "drop_parent":
            t.drop_parent(arg)
        elif op == "set_parent":
            t.set_parent(arg, ident, now)
        elif op == "touch":
            t.touch(ident, now)
        elif op == "forget":
            t.forget(ident)
        elif op == "expire":
            t.expire(now, entry_ttl=float(arg))
        elif op == "trim_to_roles":
            t.trim_to_roles()
        elif op == "merge_delta":
            t.merge_delta([(ident, arg, 1.0, 4, now), (999, 0, 1.0, 4, now)], now)
        elif op == "discard_role":
            t.unlink("level0", ident)
            t.unlink("children", ident)
        relevelled = sum(1 for i in t.all_known()
                         if t.meta(i)[0] != levels.get(i, 0))
        reparented = sum(1 for lvl in parents.keys() | t.parents.keys()
                         if parents.get(lvl) != t.parents.get(lvl))
        if op in ("set_role", "clear_role", "set_level", "drop_level"):
            assert t.version - version == whole, (op, ident, arg)
        else:
            assert t.version - version == (
                len(roles ^ _role_pairs(t)) + reparented + relevelled + whole), (
                    op, ident, arg)
        assert (membership(t) > epoch) == (set(levels) != set(t._entries))
        for role in _ROLE_SETS:
            assert (getattr(t, role) is _NO_ROLE) == (role not in written), (op, role)
        assert (t.level_tables is _NO_LEVELS) == ("level_tables" not in written)
        assert (t.level_children is _NO_LEVELS) == ("level_children" not in written)


# ------------------------------------------------- allocation on first write

def test_unwritten_roles_are_the_shared_sentinels_and_written_ones_are_private():
    a, b = RoutingTable(owner=1), RoutingTable(owner=2)
    for t in (a, b):
        assert all(getattr(t, role) is _NO_ROLE for role in _ROLE_SETS)
        assert t.level_tables is _NO_LEVELS
        assert t.version == 0
    for adder in _ADDERS.values():
        adder(a, 5, 0.0)
        adder(b, 5, 0.0)
    a.add_level(1, 5, 0.0)
    b.add_level(1, 5, 0.0)
    assert a.version == b.version == 7      # 5 roles + a new bus + its member
    for role in _LAZY:
        mine, theirs = getattr(a, role), getattr(b, role)
        assert mine == theirs and mine is not theirs
        assert mine is not _NO_ROLE and mine is not _NO_LEVELS
    assert a.level_tables[1] is not b.level_tables[1]
    a.level0.add(6)                         # a private write stays private
    assert 6 not in b.level0 and not _NO_ROLE


def test_writing_into_a_sentinel_raises_and_noop_reads_still_work():
    t = RoutingTable(owner=1)
    with pytest.raises(AttributeError):
        t.children.add(5)
    with pytest.raises(AttributeError):
        t.superiors.update({5})
    with pytest.raises(AttributeError):
        t.children.discard(5)               # even a no-op goes through the table
    with pytest.raises(TypeError):
        t.level_tables[1] = {5}
    with pytest.raises(TypeError):
        t.level_tables.setdefault(1)
    assert not _NO_ROLE and not _NO_LEVELS  # nothing landed in shared state
    t.unlink("children", 5)                 # no-op removals keep working
    t.unlink_level(1, 5)
    t.drop_level(1)
    assert t.drop_parent(1) is None
    assert t.level_tables.pop(1, None) is None
    t.forget(5)
    t.unlink_child(5)
    assert t.drop_children(1) == []
    assert t.version == 0 and t.children is _NO_ROLE and t.level_tables is _NO_LEVELS
    assert t.level_children is _NO_LEVELS  # a node that parents nothing
    assert t.active_connections() == set() and roles_of(t, 5) == set()
    t.add_child(1, 5, 0.0)
    assert t.children == {5} and t.version == 1


def test_a_deep_copy_is_faithful_and_independent(table):
    table.add("level0", 2, 0.0)
    table.add_child(1, 3, 0.0)
    table.add_level(1, 4, 0.0, max_level=1)  # relevel + new bus + member
    twin = copy.deepcopy(table)
    for role in _LAZY + ("parents",):
        assert getattr(twin, role) == getattr(table, role), role
    assert (twin.version, membership(twin)) == (table.version, membership(table)) == (5, 3)
    assert entries(twin) == entries(table)
    # Every kind of write lands in the copy only, unwritten roles included.
    twin.add("level0", 5, 1.0)
    twin.add_level(1, 6, 1.0)
    twin.set_level(2, {7})
    twin.add("superiors", 8, 1.0)
    twin.set_parent(1, 9, 1.0)
    twin.unlink_child(3)
    assert twin.superiors == {8} and twin.level_tables == {1: {4, 6}, 2: {7}}
    assert twin.level_children == {1: []} and twin.children == set()
    assert table.level0 == {2} and table.children == {3}
    assert table.level_children == {1: [3]}
    assert table.level_tables == {1: {4}} and table.superiors is _NO_ROLE
    assert table.parents == {} and entry(table, 5) is None
    assert (table.version, membership(table)) == (5, 3)


def _siblings():
    """Two tables from one install plan, as the build leaves siblings: one
    superior list and one ``parents`` map between them."""
    book = {i: (i % 3, 1.0, 4) for i in range(40)}
    parents = SharedMap({1: 30})
    superiors = SharedIds([30, 12, 33, 17, 21, 36, 9])
    a, b = RoutingTable(1, book), RoutingTable(2, book)
    a.install(0.0, [3, 4], [], [], [], parents, superiors)
    b.install(0.0, [5, 6], [], [], [], parents, superiors)
    assert a.superiors is b.superiors is superiors
    assert a.parents is b.parents is parents
    return a, b


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda o: pickle.loads(pickle.dumps(o))])
def test_shared_role_state_survives_a_deep_copy_and_pickle(clone):
    """Siblings copied together still share one superior list and one
    ``parents`` map, each equal to the original and iterating as it does,
    read-only, and thawed on a write exactly as the original would be;
    a write to one copy reaches neither the other copy nor the originals."""
    a, b = _siblings()
    a2, b2 = clone([a, b])
    assert a2.superiors is b2.superiors and a2.superiors is not a.superiors
    assert a2.parents is b2.parents and a2.parents is not a.parents
    for x, y in ((a, a2), (b, b2)):
        assert list(y.superiors) == list(x.superiors)
        assert list(y.parents.items()) == list(x.parents.items())
        assert entries(y) == entries(x) and y.version == x.version
    assert type(a2.superiors) is SharedIds and type(a2.parents) is SharedMap
    with pytest.raises(TypeError, match="read-only"):
        a2.parents[2] = 5
    a.unlink("superiors", 17)
    a2.unlink("superiors", 17)
    assert list(a2.superiors) == list(a.superiors)
    a2.set_parent(2, 33, 1.0)
    assert b2.parents == b.parents == {1: 30} and 17 in b2.superiors
    # The shared empty defaults, and a non-empty shared map, copy too.
    for shared in (_NO_ROLE, _NO_LEVELS, SharedMap({2: 7})):
        twin = clone(shared)
        assert twin == shared and type(twin) is type(shared)
    assert clone(_NO_ROLE).thaw() == set()


def test_a_write_to_a_sibling_thaws_its_own_copy_in_install_order():
    """A table's first write to a shared role thaws its own copy: ``set``
    of the install sequence, not of the shared set, so it iterates, then
    and after every write, as the unshared set the table used to hold."""
    a, b = _siblings()
    shared, seq = a.superiors, [30, 12, 33, 17, 21, 36, 9]
    unshared = set(seq)
    a.unlink("superiors", 21)
    unshared.discard(21)
    assert type(a.superiors) is set and list(a.superiors) == list(unshared)
    assert b.superiors is shared and 21 in shared
    # A gossip round's shared set was made from a set and thaws as its copy.
    made = set(seq)
    gossiped = SharedIds(made)
    assert gossiped.adds is None and list(gossiped.thaw()) == list(set(made))


_IDS = st.integers(0, 40)  # the owner (7) included
_META = st.tuples(st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.5]), st.integers(2, 6))


@given(
    stored=st.lists(st.tuples(_IDS, _META, st.integers(0, 20)), max_size=25),
    stream=st.lists(_IDS, max_size=40),
    meta=st.dictionaries(_IDS, _META, max_size=25),
    held=st.dictionaries(_IDS, _META, max_size=5),
    book=st.one_of(st.none(), st.dictionaries(_IDS, _META, max_size=25)),
    now=st.integers(0, 20),
    preset=st.lists(_IDS, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_property_import_role_equals_the_upsert_and_add_loop(stored, stream, meta, held,
                                                             book, now, preset):
    """``import_role`` from a sender's round-start map is the per-id
    ``upsert(i, now, *m)`` + ``role.add(i)`` loop, *m* the map's metadata
    for *i*, else the book's, else none: same entries (order and every
    field), same ``version`` and ``membership``, same role-set iteration
    order — whether an id is new or known, has metadata or not, changes
    level or not, whether the receiver has a book, and whether *now* is
    older or newer than the stored ``last_seen``.  (Two tables built
    alike, so the role sets share their history.)"""
    tables = []
    for _ in range(2):
        t = RoutingTable(owner=7, book=book)
        for ident, (lvl, score, nc), seen in stored:
            if ident != 7:
                t.add("superiors", ident, float(seen), lvl, score, nc)
        tables.append(t)
    loop, bulk = tables
    loop_role, bulk_role = set(preset), set(preset)
    sent = {**meta, **held}

    for i in stream:
        if i != loop.owner:
            loop.upsert(i, float(now), *(sent.get(i) or (book or {}).get(i, ())))
            loop_role.add(i)
    bulk.import_role(stream, float(now), sent, bulk_role)

    assert entries(bulk) == entries(loop)
    assert (bulk.version, membership(bulk)) == (loop.version, membership(loop))
    assert list(bulk_role) == list(loop_role)
    assert list(bulk.superiors) == list(loop.superiors)
    assert bulk._meta == loop._meta


# ------------------------------------- the entry table it replaced, as oracle
# A table keeps one timestamp per entry and only the metadata that differs
# from its network's peer book; ``EntryTable`` keeps one ``Entry`` record per
# entry and reads a book only to install.  The same op sequence on both must
# read the same.

_O_IDS = st.integers(0, 11)             # both owners (7 and 11) included
_O_META = st.tuples(st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.5]),
                    st.integers(3, 5))  # the no-metadata default included
_MAYBE = st.one_of(st.none(), st.integers(0, 3)), \
    st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.5])), \
    st.one_of(st.none(), st.integers(3, 5))
_O_OPS = st.one_of(
    st.tuples(st.just("upsert"), _O_IDS, st.tuples(*_MAYBE)),
    st.tuples(st.just("learn"), _O_IDS, st.sampled_from(_ROLE_SETS)),
    st.tuples(st.just("add"), _O_IDS, st.tuples(st.sampled_from(_ROLE_SETS), *_MAYBE)),
    st.tuples(st.just("add_level"), _O_IDS, st.tuples(st.integers(1, 2), *_MAYBE)),
    st.tuples(st.just("set_parent"), _O_IDS, st.tuples(st.integers(1, 2), *_MAYBE)),
    st.tuples(st.just("touch"), _O_IDS, st.integers(0, 3)),
    # A peer's own metadata, or None for the book's, as a repair reads it.
    st.tuples(st.just("refresh"), _O_IDS, st.one_of(st.none(), _O_META)),
    # A gossip round's bulk writer, three times as likely as the other ops.
    *[st.tuples(st.just("import"), st.lists(_O_IDS, max_size=8),
                st.sampled_from(_ROLE_SETS))] * 3,
    st.tuples(st.just("new_round"), st.just(0), st.just(0)),
    st.tuples(st.just("forget"), _O_IDS, st.just(0)),
    st.tuples(st.just("expire"), st.just(0), st.integers(0, 12)),
    st.tuples(st.just("trim_to_roles"), st.just(0), st.just(0)),
    st.tuples(st.just("merge_delta"), st.lists(st.tuples(_O_IDS, _O_META, st.integers(0, 40)),
                                               max_size=5), st.integers(-1, 30)),
)


def _reads(t):
    """Every read a caller can make of a table's entries and roles."""
    return (list(t.all_known()), entries(t), t.version, membership(t),
            list(t.sorted_ids()), t.delta_since(0), t.delta_since(10.0),
            _role_pairs(t), [list(getattr(t, role)) for role in _ROLE_SETS],
            [(lvl, list(ids)) for lvl, ids in t.level_tables.items()],
            list(t.parents.items()), list(t.level_children.items()))


@given(book=st.dictionaries(_O_IDS, _O_META, max_size=30),
       booked=st.booleans(), plan=st.data(),
       ops=st.lists(st.tuples(st.integers(0, 1), _O_OPS), min_size=12, max_size=50))
@settings(max_examples=300, deadline=None)
def test_property_the_table_reads_as_the_entry_table_it_replaced(book, booked, plan, ops):
    """Two pairs of tables — a receiver (owner 7) and a sender (owner 11),
    each once as the table and once as :class:`~reference.EntryTable` —
    run one random op sequence: an optional build ``install`` from the
    book and role-less entries, then ``upsert``, the role adders,
    ``touch``, ``refresh``, ``import_role`` from the other table's round-start
    ``overrides()`` (``new_round`` takes them anew), ``forget``,
    ``expire``, ``trim_to_roles`` and ``merge_delta``.  Both tables share
    the book, as a network's do, or neither has one.  Entries are created
    with and without metadata, equal to the book's (as a peer's own Hello
    carries it) and not.  After every op both sides read the same: ids in
    entry order, every entry's metadata and ``last_seen``, ``version``,
    the membership epoch, ``sorted_ids()``, ``delta_since`` and every
    role; and a table's own metadata holds exactly the entries that
    differ from the book."""
    from reference import EntryTable
    from repro.core.routing_table import _NO_META

    shared = book if booked else None
    new = [RoutingTable(7, shared), RoutingTable(11, shared)]
    ref = [EntryTable(7, shared), EntryTable(11, shared)]
    for k, owner in enumerate((7, 11)):
        plannable = [i for i in sorted(new[k]._book) if i != owner]
        if plannable and plan.draw(st.booleans()):
            ids = st.lists(st.sampled_from(plannable), max_size=6)
            top = plan.draw(st.integers(0, 2))
            args = (plan.draw(ids), [plan.draw(ids) for _ in range(top)],
                    [plan.draw(ids) for _ in range(top)],
                    [plan.draw(ids) for _ in range(top)],
                    plan.draw(st.one_of(st.just({}), st.builds(
                        lambda p: {top + 1: p}, st.sampled_from(plannable)))),
                    plan.draw(ids))
            new[k].install(0.0, *args)
            ref[k].install(0.0, *args)
        # Then entries learnt outside any role, as gossip leaves them.
        for i, m in plan.draw(st.lists(st.tuples(_O_IDS, st.one_of(st.none(), _O_META)),
                                       max_size=10)):
            if i != owner:
                for t in (new[k], ref[k]):
                    t.upsert(i, 0.0, *(m or book.get(i, ())))

    def round_start(tables):
        """What a gossip round reads of each table: its overrides and the
        ids its roles may name, as the round found them."""
        return [(t.overrides(), set(t.all_known())) for t in tables]

    rounds = [round_start(new), round_start(ref)]
    for step, (k, (op, ident, arg)) in enumerate(ops, 1):
        now = float(step)
        results = []
        for side, tables in enumerate((new, ref)):
            t, other = tables[k], tables[1 - k]
            if ident == t.owner and op in ("upsert", "learn", "add", "add_level",
                                           "set_parent", "refresh"):
                results.append(None)
                continue
            if op == "upsert":
                t.upsert(ident, now, *arg)
            elif op == "learn":  # the peer's own metadata, as a Hello carries it
                t.add(arg, ident, now, *book.get(ident, ()))
            elif op == "add":
                role, *meta = arg
                if role == "children":
                    t.add_child(1, ident, now, *meta)
                else:
                    t.add(role, ident, now, *meta)
            elif op == "add_level":
                t.add_level(arg[0], ident, now, *arg[1:])
            elif op == "set_parent":
                t.set_parent(arg[0], ident, now, *arg[1:])
            elif op == "touch":
                t.touch(ident, now - arg * 2.5)
            elif op == "refresh":
                if arg is not None or ident in t._book:
                    t.refresh(ident, now, arg)
            elif op == "import":  # ids the sender knew as the round began
                theirs, known = rounds[side][1 - k]
                fresh = set()
                t.import_role([i for i in ident if i in known], now, theirs, fresh)
                if fresh and arg != "children":
                    t.set_role(arg, fresh)
                results.append(list(fresh))
            elif op == "new_round":
                rounds[side] = round_start(tables)
            elif op == "forget":
                t.forget(ident)
            elif op == "expire":
                results.append(t.expire(now, float(arg)))
            elif op == "trim_to_roles":
                results.append(t.trim_to_roles())
            elif op == "merge_delta":
                delta = [(i, *m, float(seen)) for i, m, seen in ident]
                if arg >= 0:  # or the other table's own delta
                    delta = other.delta_since(float(arg))
                results.append(t.merge_delta(delta, now))
        assert results[:len(results) // 2] == results[len(results) // 2:], (op, results)
        for a, b in zip(new, ref):
            assert _reads(a) == _reads(b), (step, op, a.owner)
        for t in new:
            assert set(t._meta) <= set(t.all_known())
            assert all(m != t._book.get(i) for i, m in t._meta.items())
            assert (t._book is _NO_META) == (not booked)


_S_IDS = st.integers(0, 11).filter(lambda i: i not in (7, 11))  # never an owner
_S_OPS = st.one_of(
    st.tuples(st.just("add"), _S_IDS, st.just(0)),
    st.tuples(st.just("unlink"), _S_IDS, st.just(0)),
    st.tuples(st.just("forget"), _S_IDS, st.just(0)),
    st.tuples(st.just("set_parent"), _S_IDS, st.integers(1, 2)),
    st.tuples(st.just("drop_parent"), st.just(0), st.integers(1, 2)),
    st.tuples(st.just("touch"), _S_IDS, st.just(0)),
    st.tuples(st.just("expire"), st.just(0), st.integers(0, 6)),
    st.tuples(st.just("gossip"), st.lists(_S_IDS, max_size=8), st.just(0)),
)


@given(seq=st.lists(_S_IDS, max_size=10), parent=st.one_of(st.none(), _S_IDS),
       ops=st.lists(_S_OPS, min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_property_a_write_to_shared_roles_lands_in_the_writer_only(seq, parent, ops):
    """Two tables installed from one plan share one superior list and one
    ``parents`` map; random writes to one of them (the role adders and
    removers, ``forget``, ``expire``, parent changes, a gossip round's
    shared ``set_role``) never change a read of the other.  Every read of
    the writer matches :class:`~reference.EntryTable` under the same
    writes, and its superiors and parents iterate exactly as the unshared
    ``set(seq)`` and ``dict`` would under them: a gossip round's
    ``set_role`` as ``set(set(ids))``, the copy it used to install."""
    from reference import EntryTable

    book = {i: (i % 3, 1.0, 4) for i in range(12)}
    superiors = SharedIds(seq)
    parents = SharedMap({} if parent is None else {2: parent})
    a, b, ref = RoutingTable(7, book), RoutingTable(11, book), EntryTable(7, book)
    for t in (a, b):
        t.install(0.0, [3, 4], [], [], [], parents, superiors)
    ref.install(0.0, [3, 4], [], [], [], dict(parents), list(seq))
    untouched = _reads(b)
    model_sup, model_par = set(seq), dict(parents)
    for step, (op, ident, arg) in enumerate(ops, 1):
        now = float(step)
        gossiped = SharedIds(set(ident)) if op == "gossip" else None
        gone = []
        for t in (a, ref):
            if op == "add":
                t.add("superiors", ident, now)
            elif op == "unlink":
                t.unlink("superiors", ident)
            elif op == "forget":
                t.forget(ident)
            elif op == "set_parent":
                t.set_parent(arg, ident, now)
            elif op == "drop_parent":
                t.drop_parent(arg)
            elif op == "touch":
                t.touch(ident, now)
            elif op == "expire":
                gone.append(t.expire(now, float(arg)))
            else:
                for i in ident:
                    t.upsert(i, now, *book[i])
                t.set_role("superiors", gossiped)
        if op == "add":
            model_sup.add(ident)
        elif op == "unlink":
            model_sup.discard(ident)
        elif op in ("forget", "expire"):
            if op == "expire":
                assert gone[0] == gone[1]
            for i in gone[0] if op == "expire" else [ident]:
                model_sup.discard(i)
                for lvl in [lvl for lvl, p in model_par.items() if p == i]:
                    del model_par[lvl]
        elif op == "set_parent":
            model_par[arg] = ident
        elif op == "drop_parent":
            model_par.pop(arg, None)
        elif op == "gossip":
            model_sup = set(set(ident))
        assert _reads(a) == _reads(ref), (step, op)
        assert _reads(b) == untouched, (step, op)
        assert b.superiors is (superiors or _NO_ROLE) and b.parents is (parents or _NO_LEVELS)
        assert list(a.superiors) == list(model_sup), (step, op)
        assert list(a.parents.items()) == list(model_par.items()), (step, op)


def test_a_round_start_override_wins_over_the_book_a_sender_returned_to():
    """A sender whose metadata for an id went back to the book's during
    the round still ships the value it had when the round began, to an
    entry that reads the book and to a new one alike: ``overrides()`` is a
    copy, and a table with no override left returns the shared empty map."""
    from reference import EntryTable
    from repro.core.routing_table import _NO_META

    book = {3: (1, 1.0, 4), 5: (2, 0.5, 3)}
    new = [RoutingTable(7, book), RoutingTable(11, book)]
    ref = [EntryTable(7, book), EntryTable(11, book)]
    for receiver, sender in (new, ref):
        receiver.upsert(5, 0.0, *book[5])
        for i in (3, 5):
            sender.upsert(i, 0.0, 2, 2.5, 5)
        theirs = sender.overrides()           # the round begins
        for i in (3, 5):
            sender.upsert(i, 1.0, *book[i])   # back to the book mid-round
        receiver.import_role([3, 5], 2.0, theirs, set())
        assert theirs == {3: (2, 2.5, 5), 5: (2, 2.5, 5)}
    assert entries(new[0]) == entries(ref[0]) == [(5, 2, 2.5, 5, 2.0), (3, 2, 2.5, 5, 2.0)]
    assert new[0]._meta == {3: (2, 2.5, 5), 5: (2, 2.5, 5)} and not new[1]._meta
    assert new[1].overrides() is _NO_META
