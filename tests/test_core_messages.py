"""Unit tests for message wire-size accounting and immutability."""

import dataclasses

import pytest

from repro.core.messages import (
    ChildReport,
    Demote,
    ElectionStart,
    Hello,
    HelloAck,
    JoinAccept,
    JoinRequest,
    KeepAlive,
    KeepAliveAck,
    LookupReply,
    LookupRequest,
    ParentAnnounce,
    ParentClaim,
    PromoteGrant,
    Splice,
)


def _assert_frozen_and_slotted(m):
    """Writing any *declared field* must raise, and the instance must be
    ``__slots__``-only (no per-message ``__dict__`` on the hot path).

    Messages are frozen+slots dataclasses, except the per-hop lookup pair
    which is a ``NamedTuple`` (tuples refuse assignment with
    ``AttributeError`` instead of ``FrozenInstanceError``)."""
    if dataclasses.is_dataclass(m):
        first_field = dataclasses.fields(m)[0].name
        expected = dataclasses.FrozenInstanceError
    else:  # NamedTuple message
        first_field = m._fields[0]
        expected = AttributeError
    with pytest.raises(expected):
        setattr(m, first_field, 9)
    assert not hasattr(m, "__dict__"), type(m).__name__
    assert m.wire_size > 0


def test_all_messages_frozen():
    msgs = [
        Hello(0, 1.0, 4), HelloAck(0, 1.0, 4),
        JoinRequest(1, 1.0, 4), JoinAccept(1, 2, 3),
        Splice(1, 2, 3), KeepAlive(), KeepAliveAck(), ChildReport(1, 1.0, 0),
        ElectionStart(0, 1), ParentClaim(1, 2, 1.0), ParentAnnounce(1, 2),
        PromoteGrant(1, 2), Demote(1, 2),
        LookupRequest(1, 2, 3, "G"), LookupReply(1, 3, True, 3, 5),
    ]
    for m in msgs:
        _assert_frozen_and_slotted(m)


def test_keepalive_size_scales_with_entries():
    empty = KeepAlive()
    loaded = KeepAlive(entries=tuple((i, 0, 1.0, 4, 0.0) for i in range(10)))
    assert loaded.wire_size == empty.wire_size + 10 * 16


def test_lookup_request_size_scales_with_path():
    short = LookupRequest(1, 2, 3, "G")
    long = LookupRequest(1, 2, 3, "G", path=tuple(range(10)),
                         alternates=tuple(range(4)))
    assert long.wire_size == short.wire_size + 10 * 8 + 4 * 8


def test_parent_announce_size_scales_with_superiors():
    a = ParentAnnounce(1, 2)
    b = ParentAnnounce(1, 2, superiors=(1, 2, 3))
    assert b.wire_size == a.wire_size + 24


def test_lookup_request_defaults():
    r = LookupRequest(1, 2, 3, "NG")
    assert r.ttl == 0 and r.path == () and r.alternates == ()
    assert r.from_parent_level == 0


def test_storage_messages_frozen_and_sized():
    from repro.storage.messages import (
        StoreAck,
        StoreGet,
        StoreGetResult,
        StorePut,
        StorePutResult,
        StoreRead,
        StoreReadReply,
        StoreReplicate,
    )

    msgs = [
        StorePut(1, 2, 3), StoreGet(1, 2, 3),
        StoreReplicate(1, 2, 3, "v", 1, 2), StoreAck(1, 3, 2, 1),
        StoreRead(1, 2, 3), StoreReadReply(1, 3, 2, True),
        StorePutResult(1, 3, True), StoreGetResult(1, 3, True),
    ]
    for m in msgs:
        _assert_frozen_and_slotted(m)


def test_compute_messages_frozen_and_sized():
    from repro.compute.job import JobSpec
    from repro.compute.messages import (
        JobAccepted,
        JobAck,
        JobComplete,
        JobDispatch,
        JobHeartbeat,
        JobLease,
        JobRejected,
        JobReport,
        JobStealGrant,
        JobStealOffer,
        JobStealRequest,
        JobSubmit,
    )
    from repro.core.capacity import NodeCapacity

    spec = JobSpec(job_id=3)
    for m in [JobSubmit(1, 2, spec, 4), JobAck(1, 3, 4), JobReport(1, 3, True),
              JobDispatch(spec, 4, 1), JobAccepted(3, 5, 1),
              JobRejected(3, 5, 1), JobHeartbeat(3, 5, 1, 2.5),
              JobComplete(3, 5, 1, 10.0), JobLease(3, 1),
              JobStealOffer(5, 2.0), JobStealRequest(5, 2.0, NodeCapacity()),
              JobStealGrant(spec, 5, 4, 1)]:
        _assert_frozen_and_slotted(m)


def test_job_submit_size_scales_with_deps():
    from repro.compute.job import JobSpec
    from repro.compute.messages import JobSubmit

    bare = JobSubmit(1, 2, JobSpec(job_id=3), 4)
    dag = JobSubmit(1, 2, JobSpec(job_id=3, deps=(10, 11, 12)), 4)
    assert dag.wire_size == bare.wire_size + 3 * 8


def test_put_ack_distinct_from_get_reply():
    """The PUT-ack/GET-reply conflation fix: separate types, separate fields."""
    from repro.storage.messages import StoreGetResult, StorePutResult

    ack = StorePutResult(1, 2, True, replicas=(3, 4))
    hit = StoreGetResult(1, 2, True, value=(3, 4))
    assert type(ack) is not type(hit)
    assert ack.replicas == (3, 4) and ack.wire_size != hit.wire_size


def test_storage_message_sizes_scale():
    from repro.storage.messages import StoreGet, StorePutResult

    assert StoreGet(1, 2, 3, path=(1, 2)).wire_size == \
        StoreGet(1, 2, 3).wire_size + 16
    assert StorePutResult(1, 3, True, replicas=(1,)).wire_size == \
        StorePutResult(1, 3, True).wire_size + 8


def test_wire_size_is_not_a_constructor_argument():
    """``wire_size`` is class-level: it cannot be passed positionally or by
    keyword (so no 999-byte Hello), and it is not part of ``repr``/``==``."""
    from repro.compute.messages import JobAck
    from repro.storage.messages import StorePut

    one_per_family = [
        (Hello, (0, 1.0, 4)),            # bootstrap / join
        (ChildReport, (1, 1.0, 0)),      # maintenance
        (ElectionStart, (0, 1)),         # hierarchy
        (StorePut, (1, 2, 3, "v", 0)),   # replicated storage (NamedTuple)
        (JobAck, (1, 3, 4, True, 0)),    # grid compute
    ]
    for cls, args in one_per_family:
        msg = cls(*args)
        with pytest.raises(TypeError):
            cls(*args, 999)
        with pytest.raises(TypeError):
            cls(*args, wire_size=999)
        assert "wire_size" not in repr(msg), cls.__name__
        assert isinstance(cls.wire_size, int) and msg.wire_size == cls.wire_size


def test_wire_sizes_read_what_they_always_read():
    assert Hello(0, 1.0, 4).wire_size == 40
    entries = tuple((i, 0, 1.0, 4, 0.0) for i in range(3))
    assert KeepAlive(entries=entries).wire_size == 28 + 3 * 16
    assert KeepAliveAck(entries=entries).wire_size == 28 + 3 * 16
