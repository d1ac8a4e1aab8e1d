"""Scale scenarios — the 10k-node proof of TreeP's hierarchical scalability.

Every pre-existing scenario tops out at ~1k nodes; this family sweeps the
same workloads across N ∈ {1 000, 5 000, 10 000} (``--smoke``: {200, 500})
and reports **simulator throughput** (events/sec) alongside the overlay
metrics, so the perf trajectory in ``benchmarks/out/`` records how fast the
simulation itself runs — the quantity the sim/core hot-path work optimises.
``docs/performance.md`` documents the methodology and the before/after.

Metric naming: a sweep emits ``*_min_n`` / ``*_mid_n`` / ``*_max_n`` values
for the smallest, middle and largest N (the schema must not depend on the
sweep's length — on the two-point smoke sweep, *mid* coincides with *max*).
On the full sweep ``events_per_second_mid_n`` is the N=5 000 number the
PR-5 acceptance criterion gates on.

Checks are scale-relaxed where physics demands it (a 200-node overlay
fragments harder under 30% churn than a 10k one), mirroring the smoke
thresholds of :mod:`repro.bench.scenarios.systems`.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np

from repro.bench.scenario import Check, Metric, Scenario, ScenarioOutput, registry
from repro.cluster import Cluster
from repro.core.config import TreePConfig
from repro.core.repair import PAPER_POLICY, apply_failure_step
from repro.core.treep import TreePNetwork
from repro.storage import QuorumConfig
from repro.viz.ascii import table
from repro.workloads.jobs import JobWorkload


def _mmm(sizes: Tuple[int, ...]) -> Tuple[int, int, int]:
    """(min, mid, max) indices of a sweep; mid == max on two-point sweeps."""
    return 0, len(sizes) // 2, len(sizes) - 1


class _Measurement:
    """What one measured phase cost: wall seconds, simulator events fired,
    and their ratio (0.0 for a zero-length phase)."""

    wall = 0.0
    events = 0
    rate = 0.0


@contextmanager
def _measured(sim):
    """Time one measured phase of *sim* with garbage collection deferred.

    The same discipline pytest-benchmark applies by default — at 10k nodes
    a generational collection walks millions of live simulator objects, so
    leaving GC enabled measures arbitrary pause placement, not the
    simulator.  Both the pre- and post-optimization trajectory points in
    ``benchmarks/out/`` were recorded through this scenario code, so the
    before/after events/sec numbers are like-for-like (see
    ``docs/performance.md``).
    """
    m = _Measurement()
    e0 = sim.events_processed
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    try:
        yield m
    finally:
        m.wall = time.perf_counter() - t0
        if was_enabled:
            gc.enable()
        m.events = sim.events_processed - e0
        m.rate = m.events / m.wall if m.wall > 0 else 0.0


def _pairs(rng, population, count) -> List[Tuple[int, int]]:
    pop = list(population)
    return [tuple(int(x) for x in rng.choice(pop, 2, replace=False))
            for _ in range(count)]


def _sweep_metrics(prefix: str, sizes, values) -> Dict[str, float]:
    i_min, i_mid, i_max = _mmm(tuple(sizes))
    return {
        f"{prefix}_min_n": float(values[i_min]),
        f"{prefix}_mid_n": float(values[i_mid]),
        f"{prefix}_max_n": float(values[i_max]),
    }


# ------------------------------------------------------------- scale_lookup

def _scale_lookup(params, seed, smoke):
    sizes = tuple(params["sizes"])
    lookups = params["lookups"]
    rows, evps, hops_by_n, success_by_n = [], [], [], []
    build_max = lookup_wall_max = 0.0
    for n in sizes:
        t0 = time.perf_counter()
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
        net.build(n)
        build_s = time.perf_counter() - t0
        rng = np.random.default_rng(0)
        pairs = _pairs(rng, net.ids, lookups)
        with _measured(net.sim) as m:
            results = net.run_lookup_batch(pairs, "G")
        found = [r for r in results if r.found]
        success = len(found) / lookups
        hops = float(np.mean([r.hops for r in found])) if found else 0.0
        evps.append(m.rate)
        hops_by_n.append(hops)
        success_by_n.append(success)
        if n == sizes[-1]:
            build_max, lookup_wall_max = build_s, m.wall
        rows.append([n, f"{build_s:.2f}", f"{m.wall:.2f}", m.events,
                     f"{m.rate:.0f}",
                     f"{hops:.2f}", f"{hops / math.log2(n):.2f}",
                     f"{100 * success:.1f}"])
    rendered = table(
        ["n", "build s", "lookup s", "events", "ev/s", "hops", "hops/log2n",
         "success%"],
        rows, title=f"scale_lookup: greedy lookups at N={sizes}")
    i_min, _, i_max = _mmm(sizes)
    hops_ratio = (hops_by_n[i_max] / hops_by_n[i_min]
                  if hops_by_n[i_min] > 0 else 0.0)
    logn_ratio = math.log2(sizes[i_max]) / math.log2(sizes[i_min])
    metrics = {
        **_sweep_metrics("events_per_second", sizes, evps),
        "build_seconds_max_n": build_max,
        "lookup_wall_s_max_n": lookup_wall_max,
        "mean_hops_max_n": hops_by_n[i_max],
        "hops_over_log2n_max_n": hops_by_n[i_max] / math.log2(sizes[i_max]),
        "success_rate_min": min(success_by_n),
    }
    # Hop growth slack: small smoke overlays (200 nodes) have too few
    # hierarchy levels for the log-ratio to be tight.
    slack = 2.5 if smoke else 1.75
    checks = [
        Check("lookups_succeed_at_every_n", min(success_by_n) >= 0.98,
              f"min success {min(success_by_n):.3f} across N={sizes}"),
        Check("hops_stay_logarithmic",
              hops_by_n[i_max] <= 2.0 * math.log2(sizes[i_max]),
              f"{hops_by_n[i_max]:.2f} hops at N={sizes[i_max]} "
              f"(<= 2 log2 N = {2 * math.log2(sizes[i_max]):.2f})"),
        Check("hop_growth_tracks_logn", hops_ratio <= slack * logn_ratio,
              f"hops x{hops_ratio:.2f} vs log2N x{logn_ratio:.2f} "
              f"(slack {slack:g}) from N={sizes[i_min]} to {sizes[i_max]}"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


# -------------------------------------------------------------- scale_churn

def _scale_churn(params, seed, smoke):
    sizes = tuple(params["sizes"])
    lookups, dead_fraction, bursts = (params["lookups"],
                                      params["dead_fraction"],
                                      params["bursts"])
    rows, evps, success_by_n = [], [], []
    churn_wall_max = 0.0
    for n in sizes:
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
        net.build(n)
        rng = np.random.default_rng(1)
        order = [int(v) for v in rng.permutation(net.ids)]
        total = int(dead_fraction * n)
        per_burst = max(total // bursts, 1)
        with _measured(net.sim) as m:
            killed = 0
            while killed < total:
                step = order[killed:killed + min(per_burst, total - killed)]
                killed += len(step)
                net.fail_nodes(step)
                apply_failure_step(net, step, PAPER_POLICY)
            results = net.run_lookup_batch(
                _pairs(rng, net.alive_ids(), lookups), "G")
        success = sum(r.found for r in results) / lookups
        evps.append(m.rate)
        success_by_n.append(success)
        if n == sizes[-1]:
            churn_wall_max = m.wall
        rows.append([n, total, m.events, f"{m.rate:.0f}",
                     f"{100 * success:.1f}"])
    rendered = table(
        ["n", "killed", "events", "ev/s", "success%@churn"],
        rows,
        title=f"scale_churn: {100 * dead_fraction:.0f}% burst churn + repair "
              f"at N={sizes}")
    i_min, _, i_max = _mmm(sizes)
    metrics = {
        **_sweep_metrics("events_per_second", sizes, evps),
        "churn_wall_s_max_n": churn_wall_max,
        "success_after_churn_max_n": success_by_n[i_max],
        "success_after_churn_min": min(success_by_n),
    }
    # Same physics as the baselines scenario: the resilience floor only
    # reaches 70% once the overlay is big enough to stay connected.
    floors = [0.70 if n >= 1024 else 0.45 for n in sizes]
    checks = [
        Check("survives_churn_at_every_n",
              all(s >= f for s, f in zip(success_by_n, floors)),
              "; ".join(f"N={n}: {100 * s:.1f}% (floor {100 * f:.0f}%)"
                        for n, s, f in zip(sizes, success_by_n, floors))),
        Check("repair_converges_largest_n", success_by_n[i_max] >= 0.70,
              f"{100 * success_by_n[i_max]:.1f}% success at N={sizes[i_max]} "
              f"after {100 * dead_fraction:.0f}% churn"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


# ---------------------------------------------------------- scale_quorum_rw

def _scale_quorum_rw(params, seed, smoke):
    sizes = tuple(params["sizes"])
    ops = params["ops"]
    quorum = QuorumConfig(n=3, w=2, r=2)
    rows, evps, put_rates, get_rates = [], [], [], []
    acked_by_n, hit_by_n = [], []
    for n in sizes:
        cluster = (Cluster(config=TreePConfig.paper_case1(), seed=seed)
                   .build(n).with_storage(quorum))
        store, sim = cluster.storage, cluster.net.sim
        with _measured(sim) as puts:
            acked = sum(store.put(f"scale/{i:05d}", {"i": i}).ok
                        for i in range(ops))
        rng = np.random.default_rng(0)
        with _measured(sim) as gets:
            hits = sum(store.get(f"scale/{int(i):05d}").found
                       for i in rng.integers(0, ops, size=ops))
        wall = puts.wall + gets.wall
        rate = (puts.events + gets.events) / wall if wall > 0 else 0.0
        evps.append(rate)
        put_rates.append(ops / puts.wall if puts.wall > 0 else 0.0)
        get_rates.append(ops / gets.wall if gets.wall > 0 else 0.0)
        acked_by_n.append(acked / ops)
        hit_by_n.append(hits / ops)
        rows.append([n, f"{put_rates[-1]:.0f}", f"{get_rates[-1]:.0f}",
                     f"{rate:.0f}", f"{acked}/{ops}", f"{hits}/{ops}"])
        cluster.shutdown()
    rendered = table(
        ["n", "put/s", "get/s", "ev/s", "acked", "hits"],
        rows, title=f"scale_quorum_rw: N=3 W=2 R=2 at N={sizes}")
    metrics = {
        **_sweep_metrics("events_per_second", sizes, evps),
        "put_ops_per_second_max_n": put_rates[-1],
        "get_ops_per_second_max_n": get_rates[-1],
        "put_ack_rate_min": min(acked_by_n),
        "get_hit_rate_min": min(hit_by_n),
    }
    checks = [
        Check("every_put_quorum_acked", min(acked_by_n) == 1.0,
              f"min ack rate {min(acked_by_n):.3f} across N={sizes}"),
        Check("every_get_quorum_hit", min(hit_by_n) == 1.0,
              f"min hit rate {min(hit_by_n):.3f} across N={sizes}"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


# --------------------------------------------------------------- scale_jobs

def _scale_jobs(params, seed, smoke):
    sizes = tuple(params["sizes"])
    jobs, deadline = params["jobs"], params["deadline"]
    rows, evps, completion_by_n, goodput_by_n = [], [], [], []
    dones = []
    makespan_max = 0.0
    for n in sizes:
        cluster = (Cluster(config=TreePConfig.paper_case1(), seed=seed)
                   .build(n).with_compute())
        net, grid = cluster.net, cluster.compute
        wl = JobWorkload(rng=net.rng.get("scale-jobs"), arrival_rate=2.0,
                         work_mean=15.0, constrained_fraction=0.25)
        grid.schedule_submissions(wl.jobs(jobs, start=net.sim.now))
        with _measured(net.sim) as m:
            done = grid.run_until_done(timeout=deadline)
        stats = grid.stats()
        evps.append(m.rate)
        dones.append(bool(done))
        completion_by_n.append(stats.completion_rate)
        goodput_by_n.append(stats.goodput)
        if n == sizes[-1]:
            makespan_max = stats.makespan
        rows.append([n, jobs, m.events, f"{m.rate:.0f}",
                     f"{100 * stats.completion_rate:.0f}",
                     f"{stats.goodput:.3f}", f"{stats.makespan:.0f}"])
        cluster.shutdown()
    rendered = table(
        ["n", "jobs", "events", "ev/s", "done%", "goodput", "makespan"],
        rows, title=f"scale_jobs: steady-state grid scheduling at N={sizes}")
    metrics = {
        **_sweep_metrics("events_per_second", sizes, evps),
        "completion_rate_min": min(completion_by_n),
        "goodput_min": min(goodput_by_n),
        "makespan_max_n": makespan_max,
    }
    checks = [
        Check("every_run_finishes_before_deadline", all(dones),
              f"run_until_done verdicts {dones} (deadline {deadline:g}s)"),
        Check("every_job_completes_at_every_n", min(completion_by_n) == 1.0,
              f"min completion {min(completion_by_n):.3f} across N={sizes}"),
        Check("no_rework_without_churn", min(goodput_by_n) > 0.99,
              f"min goodput {min(goodput_by_n):.3f} (nothing re-run)"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


# ------------------------------------------------------------- registration

def _SWEEP_METRICS(desc_mid: str) -> Tuple[Metric, ...]:
    """The events/sec metric triple every scale sweep emits."""
    return (
        Metric("events_per_second_min_n", "ev/s", "higher",
               "simulator throughput at the smallest N"),
        Metric("events_per_second_mid_n", "ev/s", "higher", desc_mid),
        Metric("events_per_second_max_n", "ev/s", "higher",
               "simulator throughput at the largest N"),
    )

registry.register(Scenario(
    name="scale_lookup", group="scale",
    description=("greedy lookups at N up to 10k: events/sec, wall time, "
                 "hops vs log N (the PR-5 hot-path acceptance gate)"),
    runner=_scale_lookup,
    params={"sizes": (1000, 5000, 10000), "lookups": 1500},
    smoke_params={"sizes": (200, 500), "lookups": 300},
    metrics=(
        *_SWEEP_METRICS("simulator throughput at the middle N "
                        "(N=5k on the full sweep — the ≥3x gate)"),
        Metric("build_seconds_max_n", "s", "lower",
               "steady-state assembly at the largest N"),
        Metric("lookup_wall_s_max_n", "s", "lower"),
        Metric("mean_hops_max_n", "hops", "lower"),
        Metric("hops_over_log2n_max_n", "ratio", "lower",
               "hierarchical-scalability headline: hops / log2 N"),
        Metric("success_rate_min", "fraction", "higher"),
    )))

registry.register(Scenario(
    name="scale_churn", group="scale",
    description=("30% burst churn + converged repair at N up to 10k: "
                 "events/sec and post-churn lookup success"),
    runner=_scale_churn,
    params={"sizes": (1000, 5000, 10000), "lookups": 800,
            "dead_fraction": 0.30, "bursts": 5},
    smoke_params={"sizes": (200, 500), "lookups": 200},
    metrics=(
        *_SWEEP_METRICS("simulator throughput at the middle N"),
        Metric("churn_wall_s_max_n", "s", "lower"),
        Metric("success_after_churn_max_n", "fraction", "higher"),
        Metric("success_after_churn_min", "fraction", "higher"),
    )))

registry.register(Scenario(
    name="scale_quorum_rw", group="scale",
    description=("replicated-store quorum PUT/GET at N up to 10k: "
                 "ops/sec, events/sec, zero quorum misses"),
    runner=_scale_quorum_rw,
    params={"sizes": (1000, 5000, 10000), "ops": 60},
    smoke_params={"sizes": (200, 500), "ops": 30},
    metrics=(
        *_SWEEP_METRICS("simulator throughput at the middle N"),
        Metric("put_ops_per_second_max_n", "ops/s", "higher"),
        Metric("get_ops_per_second_max_n", "ops/s", "higher"),
        Metric("put_ack_rate_min", "fraction", "higher"),
        Metric("get_hit_rate_min", "fraction", "higher"),
    )))

registry.register(Scenario(
    name="scale_jobs", group="scale",
    description=("steady-state grid scheduling at N up to 10k: "
                 "100% completion, events/sec, makespan"),
    runner=_scale_jobs,
    params={"sizes": (1000, 5000, 10000), "jobs": 24, "deadline": 600.0},
    smoke_params={"sizes": (200, 500), "jobs": 12},
    metrics=(
        *_SWEEP_METRICS("simulator throughput at the middle N"),
        Metric("completion_rate_min", "fraction", "higher"),
        Metric("goodput_min", "fraction", "higher"),
        Metric("makespan_max_n", "sim s", "lower"),
    )))
