"""ResourceDirectory.refresh() under churn: queries must never return dead
peers, and must find rejoined capacity again."""

import numpy as np

from repro import (CapacityDistribution, Cluster, NodeCapacity, TreePConfig,
                   TreePNetwork)
from repro.core.repair import FULL_POLICY, apply_failure_step
from repro.services.discovery import Constraint
from repro.workloads import ChurnSchedule
from repro.workloads.churn import ChurnEvent

N_NODES = 96
SUPER = NodeCapacity(cpu=64.0, memory_gb=256.0, bandwidth_mbps=1000.0,
                     storage_gb=4000.0, uptime_hours=1000.0)
SUPER_CONSTRAINT = Constraint(min_cpu=32.0, min_memory_gb=128.0)


def build_net(seed=13):
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    rng = np.random.default_rng(seed)
    caps = CapacityDistribution(rng).sample_many(N_NODES)
    caps[0] = SUPER  # exactly one peer satisfies SUPER_CONSTRAINT
    net.build(N_NODES, capacities=caps)
    super_id = next(i for i in net.ids if net.capacities[i] is SUPER)
    return net, super_id


def replay(net, directory, events):
    """Apply one batch of churn events, then heal + refresh."""
    leaves = [e.node for e in events if e.kind == "leave"
              and net.network.is_up(e.node)]
    rejoins = [e.node for e in events if e.kind == "rejoin"
               and not net.network.is_up(e.node)]
    if leaves:
        net.fail_nodes(leaves)
        apply_failure_step(net, leaves, FULL_POLICY)
    for node in rejoins:
        net.network.set_up(node)
    directory.refresh()


def test_queries_never_return_dead_peers_across_sampled_churn():
    net, _ = build_net()
    directory = Cluster(net=net).with_discovery().directory
    schedule = ChurnSchedule.sampled(
        net.ids, net.rng.get("discovery-churn"), duration=300.0,
        mean_uptime=150.0, mean_downtime=60.0)
    assert len(schedule) > 0
    constraints = [Constraint(), Constraint(min_cpu=4.0),
                   Constraint(min_memory_gb=8.0),
                   Constraint(min_cpu=2.0, min_bandwidth_mbps=10.0)]
    pending = list(schedule)
    batch = 20
    while pending:
        replay(net, directory, pending[:batch])
        pending = pending[batch:]
        alive = set(net.alive_ids())
        if not alive:
            continue
        origin = sorted(alive)[0]
        for c in constraints:
            res = directory.query(c, origin=origin, max_results=8)
            assert set(res.matches) <= alive, (
                f"query returned dead peers: {set(res.matches) - alive}")
            for m in res.matches:
                assert c.admits(net.capacities[m])


def test_rejoined_capacity_is_found_again():
    net, super_id = build_net()
    directory = Cluster(net=net).with_discovery().directory
    origin = next(i for i in net.ids if i != super_id)

    res = directory.query(SUPER_CONSTRAINT, origin=origin)
    assert res.matches == (super_id,)

    # A scripted leave burst takes the super node (and some bystanders) out.
    rng = net.rng.get("discovery-rejoin")
    bystanders = [int(v) for v in rng.choice(
        [i for i in net.ids if i != super_id], 10, replace=False)]
    schedule = ChurnSchedule(events=[
        ChurnEvent(time=10.0, kind="leave", node=super_id),
        *[ChurnEvent(time=10.0, kind="leave", node=b) for b in bystanders],
        ChurnEvent(time=60.0, kind="rejoin", node=super_id),
    ])
    leaves = [e for e in schedule if e.kind == "leave"]
    rejoins = [e for e in schedule if e.kind == "rejoin"]

    replay(net, directory, leaves)
    origin = sorted(net.alive_ids())[0]
    res = directory.query(SUPER_CONSTRAINT, origin=origin)
    assert res.matches == (), "query found capacity that is dead"

    replay(net, directory, rejoins)
    res = directory.query(SUPER_CONSTRAINT, origin=origin)
    assert res.matches == (super_id,), "rejoined capacity not rediscovered"


def test_stale_directory_is_the_hazard_refresh_removes():
    """Without refresh() a post-churn query can return dead peers — the
    regression the refresh contract exists to prevent."""
    net, super_id = build_net()
    directory = Cluster(net=net).with_discovery().directory
    net.fail_nodes([super_id])
    apply_failure_step(net, [super_id], FULL_POLICY)
    # No refresh: the aggregate still admits, and the walk may surface the
    # dead node's subtree; after refresh the dead peer can never appear.
    directory.refresh()
    origin = sorted(net.alive_ids())[0]
    res = directory.query(SUPER_CONSTRAINT, origin=origin)
    assert super_id not in res.matches
    assert res.matches == ()
