"""Unit tests for the versioned per-node KVStore."""


from repro.storage.store import KVStore, VersionedValue, hash_key


def test_hash_key_stable_and_in_space():
    extent = 2**32
    a = hash_key("job/1", extent)
    assert a == hash_key("job/1", extent)
    assert 0 <= a < extent
    assert hash_key("job/2", extent) != a


def test_apply_and_get():
    s = KVStore(owner=1)
    assert s.apply(10, "a", version=1, writer=1)
    vv = s.get(10)
    assert vv == VersionedValue("a", 1, 1)
    assert s.keys() == [10]


def test_lww_higher_version_wins():
    s = KVStore(owner=1)
    s.apply(10, "old", version=1, writer=9)
    assert s.apply(10, "new", version=2, writer=1)
    assert s.get(10).value == "new"
    # A lower version never regresses the copy.
    assert not s.apply(10, "stale", version=1, writer=99)
    assert s.get(10).value == "new"


def test_lww_writer_breaks_version_ties():
    a, b = KVStore(owner=1), KVStore(owner=2)
    # Two concurrent writes with the same version, applied in both orders.
    for store, order in ((a, [(5, "x"), (8, "y")]), (b, [(8, "y"), (5, "x")])):
        for writer, val in order:
            store.apply(42, val, version=3, writer=writer)
    # Both replicas converge on the higher-writer copy.
    assert a.get(42) == b.get(42) == VersionedValue("y", 3, 8)


def test_version_counters_per_key():
    s = KVStore(owner=1)
    assert s.version_of(10) == 0 and s.next_version(10) == 1
    s.apply(10, "a", version=s.next_version(10), writer=1)
    s.apply(10, "b", version=s.next_version(10), writer=1)
    s.apply(20, "c", version=s.next_version(20), writer=1)
    assert s.version_of(10) == 2
    assert s.version_of(20) == 1


def test_dominates():
    assert VersionedValue("a", 2).dominates(VersionedValue("b", 1))
    assert VersionedValue("a", 1, writer=5).dominates(VersionedValue("b", 1, writer=3))
    assert VersionedValue("a", 1).dominates(None)
    assert not VersionedValue("a", 1).dominates(VersionedValue("a", 1))


def test_timestamp_leads_the_stamp():
    """A later-coordinated write dominates a stale higher-versioned copy
    (version counters restart when coordination moves; the clock doesn't)."""
    newer = VersionedValue("new", 1, writer=2, timestamp=50.0)
    stale = VersionedValue("old", 9, writer=7, timestamp=10.0)
    assert newer.dominates(stale)
    assert not stale.dominates(newer)
    s = KVStore(owner=1)
    s.apply(1, "old", version=9, writer=7, timestamp=10.0)
    assert s.apply(1, "new", version=1, writer=2, timestamp=50.0)
    assert s.get(1).value == "new"
