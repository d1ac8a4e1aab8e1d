"""Adversarial scenarios — chaos benches proving the stack survives
partitions, correlated rack failures, stragglers and loss bursts.

Each scenario composes :class:`~repro.sim.conditions.NetworkConditions`
onto an otherwise-standard cluster and asserts a *survival invariant* as
a Check: no acknowledged quorum write unreadable after a partition
heals, 100% job completion despite whole-rack losses, p999 lookup
latency bounded under stragglers, lookups resolving through
Gilbert-Elliott loss bursts.  Every condition draws from a dedicated RNG
stream (``adv-*``), so the pre-existing scenarios stay bit-identical at
a fixed seed with this module loaded.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.bench.scenario import Check, Metric, Scenario, ScenarioOutput, registry
from repro.bench.scenarios.systems import play_leave_bursts
from repro.cluster import Cluster
from repro.compute.job import ComputeConfig
from repro.core.config import TreePConfig
from repro.core.treep import TreePNetwork
from repro.obs.hub import STATUS_OPEN, ObsHub
from repro.sim.conditions import GilbertElliott, NetworkConditions, StragglerLatency
from repro.storage import QuorumConfig
from repro.viz.ascii import table
from repro.workloads.adversarial import (
    rack_failure_plan,
    straggler_plan,
    subtree_in_span,
    subtree_members,
)
from repro.workloads.jobs import JobWorkload
from repro.workloads.lookups import lookup_pairs


def _span_durations(hub: ObsHub, category: str) -> np.ndarray:
    """Durations of one category's closed spans (empty if none) — the
    rows every span-latency quantile is taken over."""
    spans = hub.export_streams()["spans"]
    mask = ((spans["cat"] == hub.strings.get_code(category))
            & (spans["status"] != STATUS_OPEN))
    return (spans["t1"] - spans["t0"])[mask]


# ------------------------------------------------- partition-heal durability

def _partition_quorum(params, seed, smoke):
    n, n_keys, writes = params["n"], params["keys"], params["writes"]
    quorum = QuorumConfig(n=3, w=2, r=2)
    cluster = (Cluster(config=TreePConfig.paper_case1(), seed=seed)
               .build(n).with_storage(quorum, anti_entropy=10.0))
    net, store, ae = cluster.net, cluster.storage, cluster.anti_entropy
    hub = cluster.with_observability().obs

    preload_ok = sum(store.put(f"adv/{i:04d}", {"i": i}).ok
                     for i in range(n_keys))

    # Asymmetric cut: a subtree's uplink blackholes outbound traffic while
    # inbound still flows — the nastier half of a real partition.
    topology = net.topology_snapshot()
    root = subtree_in_span(topology, net.rng.get("adv-partition"), 0.10, 0.45)
    inside = subtree_members(topology, root)
    cond = NetworkConditions(net.network)
    part = cond.partition(inside, bidirectional=False, name="uplink")
    cond.cut(part)

    inside_s, outside_s = sorted(part.a), sorted(part.b)
    acked: List[str] = []
    for i in range(writes):
        side = inside_s if i % 2 == 0 else outside_s
        via = side[(i // 2) % len(side)]
        if store.put(f"part/{i:04d}", {"w": i}, via=via).ok:
            acked.append(f"part/{i:04d}")
    blocked = cond.blocked_total()

    cond.heal(part)
    again = cond.heal(part)  # exactly-once: second heal is a no-op
    ae.converge()
    counts = {"cut": cond.cuts, "heal": cond.heals}

    vantages = (inside_s[0], outside_s[0])
    readable = sum(all(store.get(k, via=v).found for v in vantages)
                   for k in acked)
    pre_readable = sum(
        store.get(f"adv/{i:04d}", via=outside_s[i % len(outside_s)]).found
        for i in range(n_keys))
    min_rf = min(store.replication_factors().values())
    put_dur = _span_durations(hub, "storage.put")

    metrics = {
        "writes_acked_fraction": len(acked) / writes,
        "acked_readable_fraction": readable / len(acked) if acked else 0.0,
        "preload_readable_fraction": pre_readable / n_keys,
        "blocked_datagrams": float(blocked),
        "min_rf_after_heal": float(min_rf),
        "put_p99_virtual_s": np.percentile(put_dur, 99),
    }
    rendered = table(
        ["metric", "value"],
        [
            ["subtree cut (|A| / n)", f"{len(inside)} / {n}"],
            ["writes acked during cut", f"{len(acked)}/{writes}"],
            ["acked writes readable after heal", f"{readable}/{len(acked)}"],
            ["datagrams blocked by the cut", blocked],
            ["min replication factor after heal", min_rf],
        ],
        title=f"asymmetric partition + heal, quorum durability (n={n})",
    )
    checks = [
        Check("no_acked_write_lost", readable == len(acked),
              f"{readable}/{len(acked)} acked writes quorum-readable from "
              "both sides after heal"),
        Check("partition_disrupted_writes", len(acked) < writes,
              f"{writes - len(acked)} writes failed during the cut "
              "(the cut actually bit)"),
        Check("partition_blocked_datagrams", blocked > 0,
              f"{blocked} datagrams dropped at the cut"),
        Check("cut_heal_hooks_exactly_once",
              counts == {"cut": 1, "heal": 1} and not again,
              f"hooks fired {counts} (second heal was a no-op)"),
        Check("preload_survives", preload_ok == n_keys
              and pre_readable == n_keys,
              f"{pre_readable}/{n_keys} pre-cut keys readable"),
        Check("heal_restores_full_rf", min_rf == quorum.n,
              f"min rf after converge = {min_rf} (== N)"),
        Check("obs_put_spans_complete",
              len(put_dur) == n_keys + writes,
              f"{len(put_dur)} put spans recorded "
              f"(== {n_keys + writes} issued)"),
    ]
    cluster.shutdown()
    return ScenarioOutput(metrics, checks, rendered)


# ------------------------------------------------ rack-correlated failures

def _rack_failure_jobs(params, seed, smoke):
    nodes, jobs = params["nodes"], params["jobs"]
    cluster = (Cluster(config=TreePConfig.paper_case1(), seed=seed)
               .build(nodes)
               .with_storage(QuorumConfig(n=3, w=2, r=2), anti_entropy=10.0)
               .with_compute(ComputeConfig(
                   checkpoint_interval=params["checkpoint_interval"])))
    net, grid = cluster.net, cluster.compute
    hub = cluster.with_observability().obs

    wl = JobWorkload(rng=net.rng.get("adv-rack-jobs"), arrival_rate=1.0,
                     work_mean=120.0, work_sigma=0.4,
                     constrained_fraction=0.25)
    grid.schedule_submissions(wl.jobs(jobs))

    plan = rack_failure_plan(net.topology_snapshot(),
                             net.rng.get("adv-racks"),
                             params["kill_fraction"])
    play_leave_bursts(cluster, plan.as_schedule(
        start=params["first_failure"], spacing=params["rack_spacing"]))

    done = grid.run_until_done(timeout=params["deadline"])
    stats = grid.stats()
    alive = len(net.alive_ids())
    largest_rack = max(len(r) for r in plan.racks)
    job_spans = len(_span_durations(hub, "job"))

    metrics = {
        "completion_rate": stats.completion_rate,
        "reexecutions": float(stats.reexecutions),
        "wasted_work": stats.wasted_work,
        "goodput": stats.goodput,
        "racks_killed": float(len(plan.racks)),
        "killed_fraction": plan.fraction,
        "largest_rack": float(largest_rack),
    }
    rendered = table(
        ["metric", "value"],
        [
            ["population / alive", f"{nodes} / {alive}"],
            ["racks killed (whole subtrees)", len(plan.racks)],
            ["largest rack", largest_rack],
            ["killed fraction", f"{plan.fraction:.2f}"],
            ["jobs completed", f"{stats.completion_rate:.2f}"],
            ["re-executions", stats.reexecutions],
        ],
        title=f"grid jobs under rack-correlated failures (n={nodes})",
    )
    checks = [
        Check("all_jobs_complete_despite_racks",
              bool(done) and stats.completion_rate == 1.0,
              f"completion rate {stats.completion_rate:.2f} with "
              f"{plan.fraction:.0%} of the overlay dead"),
        Check("failures_actually_correlated", largest_rack >= 3,
              f"largest killed subtree = {largest_rack} nodes"),
        Check("target_fraction_reached",
              plan.fraction >= params["kill_fraction"],
              f"killed {plan.fraction:.2f} >= {params['kill_fraction']:.2f}"),
        Check("rack_failures_bit", stats.reexecutions > 0,
              f"{stats.reexecutions} re-executions (chaos not too mild)"),
        Check("obs_job_spans_complete", job_spans == jobs,
              f"{job_spans} job spans recorded (== {jobs} submitted)"),
    ]
    cluster.shutdown()
    return ScenarioOutput(metrics, checks, rendered)


# -------------------------------------------------------- straggler tail

def _straggler_tail(params, seed, smoke):
    n, lookups = params["n"], params["lookups"]
    fraction, factor = params["straggler_fraction"], params["slow_factor"]

    def one_run(inject: bool):
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
        net.build(n)
        hub = Cluster(net=net).with_observability().obs
        wrapped = None
        if inject:
            plan = straggler_plan(net.ids, net.rng.get("adv-stragglers"),
                                  fraction, factor)
            wrapped = net.network.latency = StragglerLatency(
                net.network.latency, plan.victim_set, plan.factor)
        results = net.run_lookup_batch(
            lookup_pairs(np.random.default_rng(0), net.ids, lookups), "G")
        return hub, wrapped, results

    healthy_hub, _, healthy = one_run(inject=False)
    slow_hub, wrapped, slowed = one_run(inject=True)
    h_dur = _span_durations(healthy_hub, "lookup")
    s_dur = _span_durations(slow_hub, "lookup")
    h_found = sum(r.found for r in healthy)
    s_found = sum(r.found for r in slowed)
    h_p50, h_p999 = np.percentile(h_dur, [50, 99.9])
    s_p50, s_p999 = np.percentile(s_dur, [50, 99.9])

    metrics = {
        "healthy_p50_virtual_s": h_p50,
        "healthy_p999_virtual_s": h_p999,
        "straggler_p999_virtual_s": s_p999,
        "tail_amplification": s_p999 / h_p999 if h_p999 > 0 else 0.0,
        "slowed_datagrams": float(wrapped.slowed),
        "victims": float(len(wrapped.victims)),
        "lookup_success_rate": s_found / lookups,
    }
    rendered = table(
        ["run", "p50 (s)", "p999 (s)", "success"],
        [
            ["healthy", h_p50, h_p999, f"{h_found}/{lookups}"],
            [f"{len(wrapped.victims)} stragglers x{factor:g}",
             s_p50, s_p999, f"{s_found}/{lookups}"],
        ],
        title=f"lookup tail under stragglers (n={n})",
    )
    checks = [
        Check("p999_bounded_slo", bool(s_p999 <= params["p999_ceiling"]),
              f"straggler p999 {s_p999:.3f}s <= ceiling "
              f"{params['p999_ceiling']:g}s"),
        Check("stragglers_stretch_tail", s_p999 > h_p999,
              f"p999 {s_p999:.3f}s > healthy {h_p999:.3f}s"),
        Check("stragglers_do_not_break_routing", s_found == h_found,
              f"straggler run found {s_found} == healthy {h_found} "
              "(latency-only condition: same resolutions)"),
        Check("victim_links_slowed", wrapped.slowed > 0,
              f"{wrapped.slowed} datagrams paid the x{factor:g} slowdown"),
        Check("obs_lookup_spans_complete",
              len(h_dur) == lookups and len(s_dur) == lookups,
              f"{len(h_dur)}/{len(s_dur)} lookup spans (== {lookups})"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


# ---------------------------------------------------------- loss bursts

def _loss_burst_lookup(params, seed, smoke):
    n, lookups = params["n"], params["lookups"]
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    net.build(n)
    hub = Cluster(net=net).with_observability().obs
    ge = net.network.loss_model = GilbertElliott(
        net.rng.get("adv-loss-burst"), loss_bad=params["loss_bad"],
        p_enter_bad=params["p_enter_bad"], p_exit_bad=params["p_exit_bad"])

    results = net.run_lookup_batch(
        lookup_pairs(np.random.default_rng(0), net.ids, lookups), "G")
    found = sum(r.found for r in results)
    success = found / lookups
    spans = len(_span_durations(hub, "lookup"))

    metrics = {
        "lookup_success_rate": success,
        "observed_loss_rate": ge.observed_loss(),
        "model_expected_loss": ge.expected_loss(),
        "burst_drops": float(ge.drops),
        "bad_state_fraction": ge.bad_packets / ge.packets if ge.packets else 0.0,
        "chain_transitions": float(ge.transitions),
    }
    rendered = table(
        ["metric", "value"],
        [
            ["datagrams through the loss model", ge.packets],
            ["dropped in bursts", ge.drops],
            ["observed / stationary loss",
             f"{ge.observed_loss():.3f} / {ge.expected_loss():.3f}"],
            ["lookups resolved", f"{found}/{lookups}"],
        ],
        title=f"lookups under Gilbert-Elliott loss bursts (n={n})",
    )
    expected = ge.expected_loss()
    checks = [
        Check("overlay_survives_bursts", success >= params["success_floor"],
              f"success {success:.2f} >= floor {params['success_floor']:g}"),
        Check("bursts_actually_dropped",
              ge.drops > 0 and ge.transitions > 0,
              f"{ge.drops} drops across {ge.transitions} chain transitions"),
        Check("loss_tracks_the_chain",
              abs(ge.observed_loss() - expected) <= 0.5 * expected + 0.01,
              f"observed {ge.observed_loss():.3f} vs stationary "
              f"{expected:.3f}"),
        Check("obs_lookup_spans_complete", spans == lookups,
              f"{spans} lookup spans recorded (== {lookups}; "
              "timeouts resolve, nothing hangs)"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


# -------------------------------------------------- scheduled heal + converge

def _heal_convergence(params, seed, smoke):
    n, n_keys, writes = params["n"], params["keys"], params["writes"]
    duration = params["partition_duration"]
    quorum = QuorumConfig(n=3, w=2, r=2)
    cluster = (Cluster(config=TreePConfig.paper_case1(), seed=seed)
               .build(n).with_storage(quorum, anti_entropy=10.0))
    net, store, ae = cluster.net, cluster.storage, cluster.anti_entropy
    cluster.with_observability()

    preload_ok = sum(store.put(f"adv/{i:04d}", {"i": i}).ok
                     for i in range(n_keys))

    topology = net.topology_snapshot()
    root = subtree_in_span(topology, net.rng.get("adv-heal"), 0.15, 0.45)
    inside = subtree_members(topology, root)
    cond = NetworkConditions(net.network)

    start = net.sim.now + 1.0
    part, _cut_ev, _heal_ev = cond.schedule(start, duration, inside,
                                            name="scheduled-cut")
    net.sim.run(until=start + 0.25)
    cut_active = cond.active() == (part,)

    inside_s, outside_s = sorted(part.a), sorted(part.b)
    outcomes = {}

    def _done(key):
        def cb(reply):
            outcomes[key] = bool(reply.ok)
        return cb

    for i in range(writes):
        side = inside_s if i % 2 == 0 else outside_s
        via = side[(i // 2) % len(side)]
        store.put_async(f"cut/{i:04d}", {"w": i}, via=via,
                        on_done=_done(f"cut/{i:04d}"))
    # No client-side timeout on the async path: a coordinator reply the
    # cut swallows leaves its write unresolved — unacked, so the
    # durability invariant promises nothing about it.  Only writes whose
    # ack *reached* the client count as acknowledged.
    net.sim.run(until=start + duration + 0.5)
    resolved = len(outcomes)
    acked = sorted(k for k, ok in outcomes.items() if ok)
    blocked = cond.blocked_total()
    healed = not cond.active()
    manual_noop = not cond.heal(part)  # already healed by the schedule
    counts = {"cut": cond.cuts, "heal": cond.heals}

    sweeps = ae.converge()
    readable = sum(all(store.get(k, via=v).found
                       for v in (inside_s[0], outside_s[0]))
                   for k in acked)
    min_rf = min(store.replication_factors().values())

    # Post-heal routing: cross-cut lookups in both directions.
    pairs = [(inside_s[i % len(inside_s)], outside_s[i % len(outside_s)])
             for i in range(params["crosscut_lookups"] // 2)]
    pairs += [(b, a) for a, b in pairs]
    cross_found = sum(net.lookup_sync(o, t).found for o, t in pairs)

    metrics = {
        "writes_acked_fraction": len(acked) / writes,
        "writes_resolved_fraction": resolved / writes,
        "acked_readable_fraction": readable / len(acked) if acked else 0.0,
        "blocked_datagrams": float(blocked),
        "ae_sweeps_to_converge": float(sweeps),
        "min_rf_after_heal": float(min_rf),
        "crosscut_success_post_heal": cross_found / len(pairs),
    }
    rendered = table(
        ["metric", "value"],
        [
            ["scheduled cut window (virtual s)", f"{duration:g}"],
            ["writes resolved / acked during cut",
             f"{resolved} / {len(acked)} of {writes}"],
            ["acked readable after heal", f"{readable}/{len(acked)}"],
            ["anti-entropy sweeps to converge", sweeps],
            ["cross-cut lookups after heal",
             f"{cross_found}/{len(pairs)}"],
        ],
        title=f"scheduled partition heal + convergence (n={n})",
    )
    checks = [
        Check("no_acked_write_lost", readable == len(acked),
              f"{readable}/{len(acked)} acked writes readable from both "
              "sides after the scheduled heal"),
        Check("schedule_cut_and_healed",
              cut_active and healed and counts == {"cut": 1, "heal": 1}
              and manual_noop,
              f"hooks fired {counts}; manual heal after the scheduled one "
              "was a no-op"),
        Check("cut_disrupts_acks", len(acked) < writes,
              f"{len(acked)}/{writes} writes acked, {resolved} resolved "
              "(the cut swallowed acks or replies)"),
        Check("partition_blocked_datagrams", blocked > 0,
              f"{blocked} datagrams dropped at the cut"),
        Check("heal_restores_routing",
              cross_found >= 0.9 * len(pairs),
              f"{cross_found}/{len(pairs)} cross-cut lookups after heal"),
        Check("heal_restores_full_rf",
              min_rf == quorum.n and preload_ok == n_keys,
              f"min rf {min_rf} == N after {sweeps} sweep(s)"),
    ]
    cluster.shutdown()
    return ScenarioOutput(metrics, checks, rendered)


# ------------------------------------------------------------- registration

registry.register(Scenario(
    name="adv_partition_quorum", group="adversarial",
    description=("asymmetric subtree partition + heal: no acknowledged "
                 "quorum write lost"),
    runner=_partition_quorum,
    params={"n": 96, "keys": 60, "writes": 30},
    smoke_params={"n": 64, "keys": 24, "writes": 16},
    metrics=(
        Metric("writes_acked_fraction", "fraction", "neutral",
               "writes reaching W acks while the cut is live"),
        Metric("acked_readable_fraction", "fraction", "higher",
               "the durability invariant: 1.0 or the stack is broken"),
        Metric("preload_readable_fraction", "fraction", "higher"),
        Metric("blocked_datagrams", "count", "neutral"),
        Metric("min_rf_after_heal", "replicas", "higher"),
        Metric("put_p99_virtual_s", "s", "lower",
               "includes timed-out writes at the quorum timeout"),
    )))

registry.register(Scenario(
    name="adv_rack_failure_jobs", group="adversarial",
    description=("whole-subtree (rack) correlated kills: 100% job "
                 "completion via checkpointed re-execution"),
    runner=_rack_failure_jobs,
    params={"nodes": 96, "jobs": 18, "kill_fraction": 0.30,
            "first_failure": 20.0, "rack_spacing": 12.0,
            "checkpoint_interval": 8.0, "deadline": 2000.0},
    smoke_params={"nodes": 64, "jobs": 10},
    metrics=(
        Metric("completion_rate", "fraction", "higher"),
        Metric("reexecutions", "count", "neutral"),
        Metric("wasted_work", "work", "lower"),
        Metric("goodput", "fraction", "higher"),
        Metric("racks_killed", "count", "neutral"),
        Metric("killed_fraction", "fraction", "neutral"),
        Metric("largest_rack", "nodes", "neutral"),
    )))

registry.register(Scenario(
    name="adv_straggler_tail", group="adversarial",
    description=("slow-node injection: p999 lookup latency bounded, "
                 "routing results untouched"),
    runner=_straggler_tail,
    params={"n": 256, "lookups": 400, "straggler_fraction": 0.10,
            "slow_factor": 8.0, "p999_ceiling": 4.0},
    smoke_params={"n": 128, "lookups": 150},
    metrics=(
        Metric("healthy_p50_virtual_s", "s", "lower"),
        Metric("healthy_p999_virtual_s", "s", "lower"),
        Metric("straggler_p999_virtual_s", "s", "lower"),
        Metric("tail_amplification", "ratio", "neutral",
               "straggler p999 / healthy p999"),
        Metric("slowed_datagrams", "count", "neutral"),
        Metric("victims", "count", "neutral"),
        Metric("lookup_success_rate", "fraction", "higher"),
    )))

registry.register(Scenario(
    name="adv_loss_burst_lookup", group="adversarial",
    description=("Gilbert-Elliott burst loss on every link: lookups keep "
                 "resolving, loss tracks the chain's stationary rate"),
    runner=_loss_burst_lookup,
    params={"n": 256, "lookups": 300, "loss_bad": 0.4,
            "p_enter_bad": 0.02, "p_exit_bad": 0.3,
            "success_floor": 0.75},
    smoke_params={"n": 128, "lookups": 120},
    metrics=(
        Metric("lookup_success_rate", "fraction", "higher"),
        Metric("observed_loss_rate", "fraction", "neutral"),
        Metric("model_expected_loss", "fraction", "neutral"),
        Metric("burst_drops", "count", "neutral"),
        Metric("bad_state_fraction", "fraction", "neutral"),
        Metric("chain_transitions", "count", "neutral"),
    )))

registry.register(Scenario(
    name="adv_heal_convergence", group="adversarial",
    description=("scheduled bidirectional cut with exactly-once heal: "
                 "anti-entropy reconverges, routing and quorum recover"),
    runner=_heal_convergence,
    params={"n": 96, "keys": 40, "writes": 24, "partition_duration": 8.0,
            "crosscut_lookups": 30},
    smoke_params={"n": 64, "keys": 20, "writes": 12,
                  "crosscut_lookups": 16},
    metrics=(
        Metric("writes_acked_fraction", "fraction", "neutral"),
        Metric("writes_resolved_fraction", "fraction", "neutral",
               "async writes whose coordinator reply got through"),
        Metric("acked_readable_fraction", "fraction", "higher",
               "the durability invariant after a scheduled heal"),
        Metric("blocked_datagrams", "count", "neutral"),
        Metric("ae_sweeps_to_converge", "sweeps", "lower"),
        Metric("min_rf_after_heal", "replicas", "higher"),
        Metric("crosscut_success_post_heal", "fraction", "higher"),
    )))
