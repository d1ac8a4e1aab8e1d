"""Scale-readiness regressions for the simulator hot paths (PR 5).

Four contracts the 10k-node optimization work must never break:

1. **Queue ordering/stability** — under 100k mixed schedule/cancel
   operations the heap pops strictly by ``(time, seq)`` and the live
   count stays exact.
2. **Bounded tombstones** — cancelled events may linger lazily, but the
   physical heap stays within a constant factor of the live count, even
   under the pathological ``ctx.every`` start/stop churn the service
   registry generates (the pre-PR queue grew without bound here).
3. **Determinism** — the optimizations (candidate-order caches, the
   greedy router's exact pick, blocked latency sampling, heap
   compaction) must not change simulation semantics: a fixed-seed
   workload reproduces a digest pinned from the *pre-optimization* tree,
   byte for byte.
4. **Seed-pinned scenario envelopes** — every bench scenario, at smoke
   params, reproduces the envelope committed under ``benchmarks/out/``
   (the golden) exactly: metrics, check verdicts and detail strings.
"""

import hashlib
import json
import os
import sys
from functools import partial

import numpy as np
import pytest

from reference import heap_size, on_delivery
from repro.bench import registry, run_scenario
from repro.core.config import TreePConfig
from repro.core.repair import PAPER_POLICY, apply_failure_step
from repro.core.treep import TreePNetwork
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue


# ------------------------------------------------------------ queue ordering

def test_ordering_and_liveness_under_100k_mixed_ops():
    """100k schedule/cancel/fire ops: events fire in exact (time, seq)
    order and the live count stays exact throughout."""
    rng = np.random.default_rng(12345)
    sim = Simulator()
    fired = []  # op numbers, in firing order
    key = {}  # op -> (time, seq)
    live = {}  # seq -> time, for events not yet cancelled or fired
    events = {}
    pool = []  # ops ever scheduled; may contain stale entries (O(1) pick)
    for op in range(100_000):
        roll = rng.random()
        if roll < 0.6 or not events:
            ev = sim.schedule(float(rng.uniform(0, 1000)),
                              partial(fired.append, op), label=f"op{op}")
            events[op] = ev
            key[op] = (ev.time, ev.seq)
            live[ev.seq] = ev.time
            pool.append(op)
        elif roll < 0.9:
            # cancel a random pending event (idempotent on repeats)
            victim = pool[int(rng.integers(len(pool)))]
            if victim in events:
                events[victim].cancel()
                events[victim].cancel()  # idempotent
                live.pop(key[victim][1], None)
                del events[victim]
        else:
            before = len(fired)
            sim.run(done=lambda: len(fired) > before)  # fire at most one
            if len(fired) > before:
                live.pop(key[fired[-1]][1], None)
                events.pop(fired[-1], None)
        assert sim.pending == len(live)
    sim.run()
    for op in fired:
        live.pop(key[op][1], None)
    assert not live and sim.pending == 0
    # Every event is scheduled at or after the clock, so the whole firing
    # sequence is totally sorted by (time, seq).
    order = [key[op] for op in fired]
    assert order == sorted(order)
    tail = order[-1000:]
    assert tail == sorted(tail)


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(50):
        sim.schedule_at(1.0, partial(order.append, i))
    sim.run()
    assert order == list(range(50))


# --------------------------------------------------------- bounded tombstones

def test_heap_stays_bounded_under_schedule_cancel_churn():
    """The tombstone-compaction regression: cancel-heavy churn must not
    accumulate dead entries until their far-future fire times arrive."""
    q = EventQueue()
    keep = [q.push(10_000.0 + i, lambda: None) for i in range(10)]
    for i in range(100_000):
        ev = q.push(1_000.0 + i, lambda: None)  # far future
        ev.cancel()
        assert heap_size(q) <= max(2 * len(q), 64), (
            f"heap grew to {heap_size(q)} with only {len(q)} live events")
    assert len(q) == len(keep)


def test_heap_stays_bounded_under_ctx_every_timer_churn():
    """`ctx.every` churn from the service context (cluster/service.py):
    a service arming and stopping node-scoped periodic tasks far faster
    than their periods elapse leaves cancelled events in the heap; the
    queue must keep its physical size within a constant factor of live."""
    from repro.cluster import Cluster

    cluster = Cluster(config=TreePConfig.paper_case1(), seed=7).build(24)
    net = cluster.net
    sim = net.sim
    queue = sim._queue
    state = cluster.state
    svc_ctx = None

    from repro.cluster.service import Service

    class TimerChurner(Service):
        name = "timer-churner"

        def on_attach(self, ctx):
            nonlocal svc_ctx
            svc_ctx = ctx

    state.attach(TimerChurner())
    assert svc_ctx is not None
    for round_no in range(5_000):
        # long intervals: none of these ever fires before being stopped
        timer = svc_ctx.every(3600.0, lambda: None,
                              label=f"churn{round_no}")
        timer.stop()
        assert heap_size(queue) <= max(2 * len(queue), 64), (
            f"round {round_no}: heap {heap_size(queue)} vs live {len(queue)}")
    cluster.shutdown()


# --------------------------------------------------------------- determinism

#: SHA-256 of the fixed-seed workload trace below, pinned on the
#: PRE-optimization tree (PR 4 HEAD).  The hot-path work must reproduce it
#: exactly: same deliveries at the same virtual times, same lookup results,
#: same message counts.
PINNED_TRACE_DIGEST = (
    "92fc22e4cfca21176e9597270515a8e33593d491bd86afd8d3864ab468274428")


def trace_digest(n=128, seed=7, lookups=60):
    """Digest every delivered datagram + every lookup outcome of a fixed
    workload: build, three algorithm sweeps, 20% failure + repair, retry."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    net.build(n)
    h = hashlib.sha256()

    def observe(dgram):
        h.update(
            f"{net.sim.now:.9f}|{dgram.src}|{dgram.dst}|"
            f"{type(dgram.payload).__name__}".encode())

    on_delivery(net.network, observe)
    rng = np.random.default_rng(3)
    pairs = [tuple(int(x) for x in rng.choice(net.ids, 2, replace=False))
             for _ in range(lookups)]
    for algo in ("G", "NG", "NGSA"):
        for r in net.run_lookup_batch(pairs, algo):
            h.update(f"{r.request_id}|{r.found}|{r.hops}|{r.path}".encode())
    victims = [int(v) for v in rng.choice(net.ids, n // 5, replace=False)]
    net.fail_nodes(victims)
    apply_failure_step(net, victims, PAPER_POLICY)
    alive = net.alive_ids()
    pairs = [tuple(int(x) for x in rng.choice(alive, 2, replace=False))
             for _ in range(lookups)]
    for r in net.run_lookup_batch(pairs, "G"):
        h.update(f"{r.request_id}|{r.found}|{r.hops}|{r.path}".encode())
    h.update(f"{net.sim.events_processed}|{net.network.stats.sent}|"
             f"{net.network.stats.delivered}".encode())
    return h.hexdigest()


def test_trace_digest_matches_pre_optimization_pin():
    assert trace_digest() == PINNED_TRACE_DIGEST


def test_trace_digest_is_run_to_run_deterministic():
    assert trace_digest(n=64, seed=11, lookups=30) == \
        trace_digest(n=64, seed=11, lookups=30)


# ------------------------------------------------------- the committed golden

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "out")


# The goldens are recorded on CPython 3.11 (the supported floor).  3.12's
# compensated built-in sum() may legitimately differ in the last ulp of a
# float metric; that is unverified, so other interpreters skip rather than
# compare under an invented tolerance.
@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="benchmarks/out goldens are recorded on CPython 3.11; float "
           "summation may differ in the last ulp elsewhere (unverified)")
@pytest.mark.parametrize("name", registry.names())
def test_scenario_metrics_bit_identical_at_fixed_seed(name):
    """A smoke run equals its committed envelope, byte for byte.  A PR that
    moves a metric on purpose re-records the golden (``python -m
    repro.bench run [--smoke] --out benchmarks/out``) in the same diff."""
    produced = run_scenario(name, smoke=True).to_json() + "\n"
    with open(os.path.join(GOLDEN_DIR, f"bench_{name}.smoke.json")) as fh:
        committed = fh.read()
    # parsed first: on a mismatch pytest's dict diff names the metric
    assert json.loads(produced) == json.loads(committed)
    assert produced == committed


def test_golden_files_match_the_registry_exactly():
    """No committed envelope without a registered scenario, and every
    scenario has both its full and its smoke envelope committed."""
    committed = {f for f in os.listdir(GOLDEN_DIR) if f.startswith("bench_")}
    expected = {f"bench_{name}{suffix}" for name in registry.names()
                for suffix in (".json", ".smoke.json")}
    assert committed == expected


# ------------------------------------------------------------ huge ID spaces

def test_greedy_lookups_work_beyond_float64_exact_extent(every_greedy_hop_checked):
    """Past 2**53 ids are not exact in float64 (2**60 still fits an id in
    int64): the router compares Python ints with float radii, so every
    greedy hop there is still the literal Fig. 3 reference's decision."""
    import dataclasses

    from repro.core.ids import IdSpace

    big = dataclasses.replace(TreePConfig.paper_case1(),
                              space=IdSpace(extent=2**60))
    net = TreePNetwork(config=big, seed=5)
    net.build(96)
    rng = np.random.default_rng(2)
    pairs = [tuple(int(x) for x in rng.choice(net.ids, 2, replace=False))
             for _ in range(40)]
    with every_greedy_hop_checked() as hops:
        net.run_lookup_batch(pairs, "G")
    assert hops[0] > 2 * len(pairs)


# ------------------------------------------------------------- engine sanity

def test_run_inline_loop_matches_step_semantics():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(0.5, lambda: fired.append(0))
    ev = sim.schedule(2.0, lambda: fired.append(2))
    ev.cancel()
    assert sim.run() == 2
    assert fired == [0, 1]
    assert sim.now == 1.0
