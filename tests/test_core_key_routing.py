"""Key-space routing: ``closest_first`` and the bisecting
``greedy_key_next_hop`` against the linear scan it replaced.

The scan is kept here as the reference: over the whole table, in
``_entries`` (insertion) order, strict ``<`` — so on an exact left/right
distance tie the entry the table learnt first wins.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import closest_first
from repro.core.lookup import greedy_key_next_hop
from repro.core.routing_table import RoutingTable

OWNER = 10_000
IDS = st.integers(0, 400).filter(lambda i: i != OWNER)


def reference_next_hop(view, key_id, exclude=frozenset(), improving_only=True):
    """``greedy_key_next_hop`` as it was before the bisect (verbatim)."""
    best = None
    best_d = abs(view.ident - key_id) if improving_only else None
    for ident in view.table._entries:
        if ident in exclude:
            continue
        d = abs(ident - key_id)
        if best_d is None or d < best_d:
            best, best_d = ident, d
    return best


def _view(table, ident=OWNER):
    return SimpleNamespace(ident=ident, table=table)


def _exclusions(table, key_id):
    """The exclude sets worth trying at this table and key."""
    by_distance = sorted(table._entries, key=lambda i: (abs(i - key_id), i))
    return [
        frozenset(),
        frozenset(by_distance[:1]),
        frozenset(by_distance[:3]),           # nearest three excluded
        frozenset(by_distance[1:2]),          # the tie partner, if any
        frozenset(by_distance),               # everything excluded
        frozenset(by_distance[::2]) | {OWNER},
    ]


def _assert_equivalent(table, keys, owner_idents=(OWNER, 200)):
    for ident in owner_idents:
        if ident in table._entries:
            continue  # a table never holds its owner
        view = _view(table, ident)
        for key_id in keys:
            for exclude in _exclusions(table, key_id):
                for improving_only in (True, False):
                    got = greedy_key_next_hop(view, key_id, exclude, improving_only)
                    want = reference_next_hop(view, key_id, exclude, improving_only)
                    assert got == want, (sorted(table._entries), ident, key_id,
                                         sorted(exclude), improving_only)


# ------------------------------------------------------------ closest_first
@given(ids=st.lists(st.integers(0, 200), unique=True, max_size=30),
       key=st.integers(-5, 205))
@settings(max_examples=300, deadline=None)
def test_closest_first_is_the_distance_sort(ids, key):
    want = sorted(((abs(i - key), i) for i in ids))
    assert list(closest_first(sorted(ids), key)) == want


def test_closest_first_edges():
    assert list(closest_first([], 5)) == []
    assert list(closest_first([3, 9], 6)) == [(3, 3), (3, 9)]   # tie: smaller id
    assert list(closest_first([3, 9], 1)) == [(2, 3), (8, 9)]   # below smallest
    assert list(closest_first([3, 9], 12)) == [(3, 9), (9, 3)]  # above largest
    assert list(closest_first([3, 9], 9)) == [(0, 9), (6, 3)]   # key is an id
    lazy = closest_first(list(range(0, 2_000_000, 2)), 1_000_001)
    assert next(lazy) == (1, 1_000_000) and next(lazy) == (1, 1_000_002)


# ----------------------------------------------------- greedy_key_next_hop
@given(ids=st.lists(IDS, unique=True, min_size=0, max_size=25),
       keys=st.lists(st.integers(0, 400), min_size=1, max_size=6),
       pair=st.tuples(st.integers(1, 199), st.integers(1, 40)),
       left_first=st.booleans())
@settings(max_examples=200, deadline=None)
def test_next_hop_equals_the_linear_scan(ids, keys, pair, left_first):
    """Random tables (random insertion order), keys on/between/outside the
    ids, with one forced equidistant pair inserted in either order."""
    centre, gap = pair
    left, right = centre - gap, centre + gap
    table = RoutingTable(owner=OWNER)
    forced = [left, right] if left_first else [right, left]
    for ident in forced + [i for i in ids if i not in (left, right)]:
        if ident >= 0:
            table.upsert(ident, 0.0)
    known = sorted(table._entries)
    keys = keys + [centre, known[0], known[-1], max(known[0] - 1, 0), known[-1] + 1]
    _assert_equivalent(table, keys)


def test_equidistant_pair_resolves_by_insertion_order():
    for first, second in ((90, 110), (110, 90)):
        table = RoutingTable(owner=OWNER)
        table.upsert(first, 0.0)
        table.upsert(second, 0.0)
        table.upsert(40, 0.0)
        assert greedy_key_next_hop(_view(table), 100) == first
        assert greedy_key_next_hop(_view(table), 100, frozenset({first})) == second
        # Not improving for a node that is itself 10 away.
        assert greedy_key_next_hop(_view(table, 105), 100) is None
        assert greedy_key_next_hop(_view(table, 111), 100) == first


_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["upsert_roleless", "forget", "trim_to_roles", "expire",
                         "merge_delta", "add_level0"]),
        IDS,
    ),
    min_size=1, max_size=12,
)


@given(ids=st.lists(IDS, unique=True, min_size=1, max_size=20), steps=_STEPS,
       keys=st.lists(st.integers(0, 400), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_next_hop_never_sees_a_stale_sorted_view(ids, steps, keys):
    """Re-check after each mutator: the answer is always the scan's over the
    *current* entries, so a stale ``sorted_ids()`` is impossible."""
    table = RoutingTable(owner=OWNER)
    for n, ident in enumerate(ids):
        if n % 2:
            table.add_level0(ident, 0.0)   # role-backed: survives a trim
        else:
            table.upsert(ident, 0.0)
    now = 0.0
    _assert_equivalent(table, keys)
    for op, ident in steps:
        now += 10.0
        if op == "upsert_roleless":
            table.upsert(ident, now)
        elif op == "forget":
            table.forget(ident)
        elif op == "trim_to_roles":
            table.trim_to_roles()
        elif op == "expire":
            table.touch(ident, now)
            table.expire(now, entry_ttl=15.0)
        elif op == "merge_delta":
            table.merge_delta([(ident, 0, 1.0, 4, now), (ident + 1, 1, 1.0, 4, now)], now)
        elif op == "add_level0":
            table.add_level0(ident, now)
        _assert_equivalent(table, keys + [ident])
