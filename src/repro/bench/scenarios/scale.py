"""Scale scenarios — the 10k-node proof of TreeP's hierarchical scalability.

Every other scenario tops out at ~1k nodes; this family sweeps the same
workloads across N ∈ {1 000, 5 000, 10 000} (``--smoke``: {200, 500}) and
reports the overlay metrics next to the **simulator events the measured
phase cost** — an exact count (``Simulator.events_processed`` delta), so
the work a workload does as N grows is part of the golden.  How long those
events take on a host clock is ``benchmarks/perf``'s question
(``docs/performance.md``).

Metric naming: a sweep emits ``*_min_n`` / ``*_mid_n`` / ``*_max_n`` values
for the smallest, middle and largest N (the schema must not depend on the
sweep's length — on the two-point smoke sweep, *mid* coincides with *max*).

Checks are scale-relaxed where physics demands it (a 200-node overlay
fragments harder under 30% churn than a 10k one), mirroring the smoke
thresholds of :mod:`repro.bench.scenarios.systems`.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.bench.scenario import Check, Metric, Scenario, ScenarioOutput, registry
from repro.bench.scenarios.systems import lookup_pairs
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


def _event_metrics(sizes, events_by_n) -> Dict[str, float]:
    """Simulator events the measured phase fired, by sweep position."""
    i_min, i_mid, i_max = _mmm(tuple(sizes))
    return {
        "events_min_n": float(events_by_n[i_min]),
        "events_mid_n": float(events_by_n[i_mid]),
        "events_max_n": float(events_by_n[i_max]),
    }


# ------------------------------------------------------------- scale_lookup

def _scale_lookup(params, seed, smoke):
    sizes = tuple(params["sizes"])
    lookups = params["lookups"]
    rows, events_by_n, hops_by_n, success_by_n = [], [], [], []
    for n in sizes:
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
        net.build(n)
        rng = np.random.default_rng(0)
        pairs = lookup_pairs(rng, net.ids, lookups)
        e0 = net.sim.events_processed
        results = net.run_lookup_batch(pairs, "G")
        events = net.sim.events_processed - e0
        found = [r for r in results if r.found]
        success = len(found) / lookups
        hops = float(np.mean([r.hops for r in found])) if found else 0.0
        events_by_n.append(events)
        hops_by_n.append(hops)
        success_by_n.append(success)
        rows.append([n, events, f"{hops:.2f}", f"{hops / math.log2(n):.2f}",
                     f"{100 * success:.1f}"])
    rendered = table(
        ["n", "events", "hops", "hops/log2n", "success%"],
        rows, title=f"scale_lookup: greedy lookups at N={sizes}")
    i_min, _, i_max = _mmm(sizes)
    hops_ratio = (hops_by_n[i_max] / hops_by_n[i_min]
                  if hops_by_n[i_min] > 0 else 0.0)
    logn_ratio = math.log2(sizes[i_max]) / math.log2(sizes[i_min])
    metrics = {
        **_event_metrics(sizes, events_by_n),
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
    rows, events_by_n, success_by_n = [], [], []
    for n in sizes:
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
        net.build(n)
        rng = np.random.default_rng(1)
        order = [int(v) for v in rng.permutation(net.ids)]
        total = int(dead_fraction * n)
        per_burst = max(total // bursts, 1)
        e0 = net.sim.events_processed
        killed = 0
        while killed < total:
            step = order[killed:killed + min(per_burst, total - killed)]
            killed += len(step)
            net.fail_nodes(step)
            apply_failure_step(net, step, PAPER_POLICY)
        results = net.run_lookup_batch(
            lookup_pairs(rng, net.alive_ids(), lookups), "G")
        events = net.sim.events_processed - e0
        success = sum(r.found for r in results) / lookups
        events_by_n.append(events)
        success_by_n.append(success)
        rows.append([n, total, events, f"{100 * success:.1f}"])
    rendered = table(
        ["n", "killed", "events", "success%@churn"],
        rows,
        title=f"scale_churn: {100 * dead_fraction:.0f}% burst churn + repair "
              f"at N={sizes}")
    i_min, _, i_max = _mmm(sizes)
    metrics = {
        **_event_metrics(sizes, events_by_n),
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
    rows, events_by_n, acked_by_n, hit_by_n = [], [], [], []
    for n in sizes:
        cluster = (Cluster(config=TreePConfig.paper_case1(), seed=seed)
                   .build(n).with_storage(quorum))
        store, sim = cluster.storage, cluster.net.sim
        e0 = sim.events_processed
        acked = sum(store.put(f"scale/{i:05d}", {"i": i}).ok
                    for i in range(ops))
        rng = np.random.default_rng(0)
        hits = sum(store.get(f"scale/{int(i):05d}").found
                   for i in rng.integers(0, ops, size=ops))
        events = sim.events_processed - e0
        events_by_n.append(events)
        acked_by_n.append(acked / ops)
        hit_by_n.append(hits / ops)
        rows.append([n, events, f"{acked}/{ops}", f"{hits}/{ops}"])
        cluster.shutdown()
    rendered = table(
        ["n", "events", "acked", "hits"],
        rows, title=f"scale_quorum_rw: N=3 W=2 R=2 at N={sizes}")
    metrics = {
        **_event_metrics(sizes, events_by_n),
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
    rows, events_by_n, completion_by_n, goodput_by_n = [], [], [], []
    dones = []
    makespan_max = 0.0
    for n in sizes:
        cluster = (Cluster(config=TreePConfig.paper_case1(), seed=seed)
                   .build(n).with_compute())
        net, grid = cluster.net, cluster.compute
        wl = JobWorkload(rng=net.rng.get("scale-jobs"), arrival_rate=2.0,
                         work_mean=15.0, constrained_fraction=0.25)
        grid.schedule_submissions(wl.jobs(jobs, start=net.sim.now))
        e0 = net.sim.events_processed
        done = grid.run_until_done(timeout=deadline)
        events = net.sim.events_processed - e0
        stats = grid.stats()
        events_by_n.append(events)
        dones.append(bool(done))
        completion_by_n.append(stats.completion_rate)
        goodput_by_n.append(stats.goodput)
        if n == sizes[-1]:
            makespan_max = stats.makespan
        rows.append([n, jobs, events, f"{100 * stats.completion_rate:.0f}",
                     f"{stats.goodput:.3f}", f"{stats.makespan:.0f}"])
        cluster.shutdown()
    rendered = table(
        ["n", "jobs", "events", "done%", "goodput", "makespan"],
        rows, title=f"scale_jobs: steady-state grid scheduling at N={sizes}")
    metrics = {
        **_event_metrics(sizes, events_by_n),
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

#: The measured phase's simulator-event count at the smallest, middle and
#: largest N — every scale sweep emits this triple.
_SWEEP_METRICS = (
    Metric("events_min_n", "events", "lower"),
    Metric("events_mid_n", "events", "lower"),
    Metric("events_max_n", "events", "lower"),
)

registry.register(Scenario(
    name="scale_lookup", group="scale",
    description=("greedy lookups at N up to 10k: hops vs log N, success, "
                 "events per batch"),
    runner=_scale_lookup,
    params={"sizes": (1000, 5000, 10000), "lookups": 1500},
    smoke_params={"sizes": (200, 500), "lookups": 300},
    metrics=(
        *_SWEEP_METRICS,
        Metric("mean_hops_max_n", "hops", "lower"),
        Metric("hops_over_log2n_max_n", "ratio", "lower",
               "hierarchical-scalability headline: hops / log2 N"),
        Metric("success_rate_min", "fraction", "higher"),
    )))

registry.register(Scenario(
    name="scale_churn", group="scale",
    description=("30% burst churn + converged repair at N up to 10k: "
                 "post-churn lookup success, events"),
    runner=_scale_churn,
    params={"sizes": (1000, 5000, 10000), "lookups": 800,
            "dead_fraction": 0.30, "bursts": 5},
    smoke_params={"sizes": (200, 500), "lookups": 200},
    metrics=(
        *_SWEEP_METRICS,
        Metric("success_after_churn_max_n", "fraction", "higher"),
        Metric("success_after_churn_min", "fraction", "higher"),
    )))

registry.register(Scenario(
    name="scale_quorum_rw", group="scale",
    description=("replicated-store quorum PUT/GET at N up to 10k: "
                 "zero quorum misses, events"),
    runner=_scale_quorum_rw,
    params={"sizes": (1000, 5000, 10000), "ops": 60},
    smoke_params={"sizes": (200, 500), "ops": 30},
    metrics=(
        *_SWEEP_METRICS,
        Metric("put_ack_rate_min", "fraction", "higher"),
        Metric("get_hit_rate_min", "fraction", "higher"),
    )))

registry.register(Scenario(
    name="scale_jobs", group="scale",
    description=("steady-state grid scheduling at N up to 10k: "
                 "100% completion, makespan, events"),
    runner=_scale_jobs,
    params={"sizes": (1000, 5000, 10000), "jobs": 24, "deadline": 600.0},
    smoke_params={"sizes": (200, 500), "jobs": 12},
    metrics=(
        *_SWEEP_METRICS,
        Metric("completion_rate_min", "fraction", "higher"),
        Metric("goodput_min", "fraction", "higher"),
        Metric("makespan_max_n", "sim s", "lower"),
    )))
