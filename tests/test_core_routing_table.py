"""Unit + property tests for the six-table routing state."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import membership
from repro.core.routing_table import _NO_LEVELS, _NO_ROLE, Entry, RoutingTable


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
    e = table.upsert(5, now=1.0, max_level=2, score=3.0)
    assert e.max_level == 2 and e.last_seen == 1.0
    e2 = table.upsert(5, now=2.0, score=4.0)
    assert e2 is e
    assert e.last_seen == 2.0 and e.score == 4.0 and e.max_level == 2


def test_self_entry_rejected(table):
    with pytest.raises(ValueError):
        table.upsert(1000, now=0.0)


def test_touch_never_regresses(table):
    e = table.upsert(5, now=5.0)
    table.touch(5, 3.0)
    assert e.last_seen == 5.0
    table.touch(5, 7.0)
    assert e.last_seen == 7.0


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
    assert table.get(9).last_seen == 2.0


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
    assert table.get(5) is None
    assert roles_of(table, 5) == set()
    assert table.parents == {}


def test_expire_drops_stale(table):
    table.add("level0", 1, now=0.0)
    table.add("level0", 2, now=10.0)
    stale = table.expire(now=15.0, entry_ttl=10.0)
    assert stale == [1]
    assert table.get(2) is not None and table.get(1) is None


def test_level1_parent(table):
    assert table.level1_parent() is None
    table.set_parent(1, 77, 0.0)
    assert table.level1_parent() == 77


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
    assert table.get(1) is not None and table.get(99) is None


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
    assert table.get(5).score == 1.0
    assert table.get(6).max_level == 1


def test_entry_as_tuple_roundtrip():
    e = Entry(ident=3, max_level=2, score=1.5, nc=4, last_seen=9.0)
    assert e.as_tuple() == (3, 2, 1.5, 4, 9.0)


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
    assert table.version == before + 1 and table.level1_parent() == 50
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
        levels = {i: e.max_level for i, e in t._entries.items()}
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
        relevelled = sum(1 for i, e in t._entries.items()
                         if e.max_level != levels.get(i, 0))
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
    assert ([e.as_tuple() for e in twin._entries.values()]
            == [e.as_tuple() for e in table._entries.values()])
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
    assert table.parents == {} and table.get(5) is None
    assert (table.version, membership(table)) == (5, 3)


_IDS = st.integers(0, 40)  # the owner (7) included
_META = st.tuples(st.integers(0, 3), st.sampled_from([0.5, 1.0, 2.5]), st.integers(2, 6))


@given(
    stored=st.lists(st.tuples(_IDS, _META, st.integers(0, 20)), max_size=25),
    stream=st.lists(_IDS, max_size=40),
    meta=st.dictionaries(_IDS, _META, max_size=25),
    held=st.dictionaries(_IDS, _META, max_size=5),
    now=st.integers(0, 20),
    preset=st.lists(_IDS, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_property_import_role_equals_the_upsert_and_add_loop(stored, stream, meta, held,
                                                             now, preset):
    """``import_role`` from a sender is the per-id ``upsert(i, now, *m)`` +
    ``role.add(i)`` loop, *m* the sender's pre-round metadata for *i* — its
    recorded pre-image if the round changed it, else its entry, else none:
    same entries (order and every field), same ``version`` and
    ``membership``, same role-set iteration order — whether an id is new or
    known, has metadata or not, changes level or not, and whether *now* is
    older or newer than the stored ``last_seen``.  (Two tables built alike,
    so the role sets share their history.)  The first change to each entry
    the receiver held is recorded as its pre-image, and nothing else is."""
    sender = RoutingTable(owner=41)
    for ident, m in meta.items():
        sender.upsert(ident, 0.0, *m)
    tables = []
    for _ in range(2):
        t = RoutingTable(owner=7)
        for ident, (lvl, score, nc), seen in stored:
            if ident != 7:
                t.add("superiors", ident, float(seen), lvl, score, nc)
        tables.append(t)
    loop, bulk = tables
    loop_role, bulk_role = set(preset), set(preset)
    sent = {**meta, **held}
    found = {i: (e.max_level, e.score, e.nc) for i, e in bulk._entries.items()}

    for i in stream:
        if i != loop.owner:
            loop.upsert(i, float(now), *sent.get(i, ()))
            loop_role.add(i)
    before = {41: dict(held)} if held else {}
    bulk.import_role(stream, float(now), sender, bulk_role, before)

    assert ([e.as_tuple() for e in bulk._entries.values()]
            == [e.as_tuple() for e in loop._entries.values()])
    assert (bulk.version, membership(bulk)) == (loop.version, membership(loop))
    assert list(bulk_role) == list(loop_role)
    assert list(bulk.superiors) == list(loop.superiors)
    changed = {i: found[i] for i in stream if i in found and i in sent and sent[i] != found[i]}
    assert before.get(7, {}) == changed
    assert before.get(41, {}) == held


def test_refresh_is_upsert_recording_the_first_change():
    t = RoutingTable(owner=1)
    t.add("level0", 5, 0.0, max_level=2, score=1.5, nc=3)
    before = {}
    t.refresh(5, 1.0, (2, 1.5, 3), before)   # no change: nothing recorded
    t.refresh(6, 1.0, (1, 1.0, 4), before)   # a new entry has no pre-image
    assert before == {}
    t.refresh(5, 2.0, (3, 1.5, 3), before)
    t.refresh(5, 3.0, (4, 0.5, 3), before)   # the first change wins
    assert before == {1: {5: (2, 1.5, 3)}}
    assert t.get(5).as_tuple() == (5, 4, 0.5, 3, 3.0)
