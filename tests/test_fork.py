"""A run is a value: ``copy.deepcopy`` or a ``pickle`` round trip of a
running network is a fork of it, at any instant, with no snapshot code.

Every callback the simulation keeps (on the event heap, or registered as
a completion) is a bound method or a ``functools.partial`` of one, so a
copy's queued events act on the copy's own objects.  The fork runs on,
and the original runs on as if nothing had been copied; each is compared
with an uncopied reference run to the same horizon.

The comparison is of the state's content: a copied ``set`` is rebuilt
from its elements, so it may iterate in another order than the original
(CPython lays a set out by its history of adds and discards).  Where a
protocol decision iterates such a set, the fork's behaviour moves too:
keep-alives go out in another order, so latency draws land elsewhere.
That holds for the mid-maintenance fork, which ends with other
``last_seen`` stamps than the reference; it is expected to fail until
decisions stop depending on set layout (ROADMAP item 20).
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro import Cluster, JobSpec, QuorumConfig, TreePConfig, TreePNetwork

CLONES = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}

SET_LAYOUT = ("a copied set iterates in its rebuilt layout, and keep-alives "
              "iterate level0: the fork's datagrams go out in another order")


def net_of(run):
    return run.net if isinstance(run, Cluster) else run


def state(run, extra=()):
    """What a run holds, by content: clock and event count, every table
    (entries with their ``last_seen`` in dict order, role sets sorted),
    every store's data, every job's outcome and held state, and *extra*."""
    net = net_of(run)
    out = [net.sim.now, net.sim.events_processed, tuple(extra)]
    for i in net.ids:
        t = net.nodes[i].table
        out.append((i, tuple(t._entries.items()), sorted(t.level0),
                    sorted(t.superiors), sorted(t.children),
                    tuple(t.parents.items())))
    if isinstance(run, Cluster):
        storage = run.service("storage")
        if storage is not None:
            out += [(i, tuple(a.store._data.items()))
                    for i, a in storage.agents.items()]
        compute = run.service("compute")
        if compute is not None:
            out.append(sorted(compute.results.items()))
            out += [(i, j, h.state, h.attempt, h.resume_from, h.executed_attempt)
                    for i, a in compute.agents.items()
                    for j, h in a.running.items()]
        if run.service("observability") is not None:
            out.append(sorted(run.obs.sim_event_counts.items()))
    return out


def mid_maintenance():
    net = TreePNetwork(TreePConfig.paper_case1(), seed=42)
    net.build(128)
    net.start_maintenance()
    net.sim.run_for(5.0)
    return net


def between_lookup_batches():
    net = TreePNetwork(TreePConfig.paper_case1(), seed=42)
    net.build(128)
    net.run_lookup_batch([(net.ids[i], net.ids[-1 - i]) for i in range(20)])
    return net


def mid_quorum_write():
    """Ten writes in flight, a trace hub attached."""
    cluster = (Cluster(seed=7).build(64)
               .with_storage(QuorumConfig(n=3, w=2, r=2)).with_observability())
    for k in range(10):
        assert cluster.storage.put(f"k{k}", k).ok
    for k in range(10):
        cluster.storage.put_async(f"k{k}", k + 100, via=cluster.net.ids[k])
    cluster.net.sim.run_for(0.02)
    assert any(a._writes for a in cluster.storage.agents.values())
    return cluster


def mid_job():
    """Five 30 s jobs, 12 s into their run."""
    cluster = Cluster(seed=7).build(64).with_compute()
    for j in range(1, 6):
        cluster.compute.submit(JobSpec(job_id=j, cpu_demand=1.0, work=30.0))
    cluster.net.sim.run_for(12.0)
    assert any(h.state == "running" for a in cluster.compute.agents.values()
               for h in a.running.values())
    return cluster


def run_on(run):
    net_of(run).sim.run_for(40.0)
    return state(run)


def next_lookup_batch(net):
    pairs = [(net.ids[i + 3], net.ids[i]) for i in range(20)]
    found = [(r.found, r.hops, r.path) for r in net.run_lookup_batch(pairs)]
    return state(net, found)


INSTANTS = {
    "mid-maintenance": (mid_maintenance, run_on),
    "between-lookup-batches": (between_lookup_batches, next_lookup_batch),
    "mid-quorum-write": (mid_quorum_write, run_on),
    "mid-job": (mid_job, run_on),
}


@pytest.mark.parametrize("how", sorted(CLONES))
@pytest.mark.parametrize("instant", list(INSTANTS))
def test_a_fork_runs_on_as_an_uncopied_run(instant, how):
    start, finish = INSTANTS[instant]
    reference = finish(start())
    original = start()
    fork = CLONES[how](original)
    forked = finish(fork)
    # Run after the fork, the original must not see anything the fork did.
    assert finish(original) == reference
    assert forked[:2] == reference[:2]  # clock and event count
    if isinstance(original, Cluster) and original.service("observability") is not None:
        # The hub is carried: the fork records into its own, wired to the
        # fork's network, nodes and event hook, and counts what it ran.
        assert fork.obs is not original.obs and net_of(fork).obs is fork.obs
        assert all(n.obs is fork.obs for n in net_of(fork).nodes.values())
    if instant == "mid-maintenance" and forked != reference:
        pytest.xfail(SET_LAYOUT)
    assert forked == reference
