"""System scenarios — engineering benches as registry entries.

``core`` (lookup success and §III.e table sizes), ``table_sizes`` (§III.e
bounds), ``ngsa_cost`` (§IV.a bandwidth verdict), ``baselines`` (TreeP vs
Chord vs flooding), ``storage`` (quorum acks, anti-entropy cost,
durability under 30% churn) and ``compute`` (scheduling under burst
churn, checkpointing vs restart).

One piece of plumbing the ``adv_*`` family shares lives here, once:
:func:`play_leave_bursts` (timed crash bursts against a storage + compute
cluster).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple

import numpy as np

from repro.baselines import ChordNetwork, FloodNetwork
from repro.bench.scenario import Check, Metric, Scenario, ScenarioOutput, registry
from repro.bench.sweep import fail_until
from repro.cluster import Cluster
from repro.compute.job import ComputeConfig
from repro.core.config import TreePConfig
from repro.core.repair import PAPER_POLICY, apply_failure_step
from repro.core.treep import TreePNetwork
from repro.storage import QuorumConfig
from repro.viz.ascii import table
from repro.workloads.churn import ChurnEvent, ChurnSchedule
from repro.workloads.jobs import JobWorkload
from repro.workloads.lookups import LookupWorkload, lookup_pairs


# ----------------------------------------------------------------- plumbing

def play_leave_bursts(cluster, events) -> None:
    """Play time-sorted leave *events* against a cluster running storage
    (with anti-entropy) and compute: run the sim to each burst's instant,
    crash its nodes with a converged table heal, re-replicate, and fail
    the scheduler over if the burst took its host."""
    net, grid, ae = cluster.net, cluster.compute, cluster.anti_entropy
    pending = list(events)
    while pending:
        t = pending[0].time
        burst = [e for e in pending if e.time == t]
        pending = pending[len(burst):]
        if net.sim.now < t:
            net.sim.run(until=t)
        cluster.fail_nodes([e.node for e in burst], heal=True)
        ae.converge()
        grid.ensure_scheduler()


# --------------------------------------------------------------------- core

def _core(params, seed, smoke):
    n, lookups = params["n"], params["lookups"]
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    net.build(n)

    results = net.run_lookup_batch(
        lookup_pairs(np.random.default_rng(0), net.ids, lookups), "G")
    found = sum(r.found for r in results)

    sizes = net.routing_table_sizes()
    conns = net.active_connection_counts()
    leaf_sizes = [sizes[i] for i, nd in net.nodes.items() if nd.max_level == 0]
    metrics = {
        "lookup_success_rate": found / lookups,
        "table_entries_mean": float(np.mean(list(sizes.values()))),
        "table_entries_max": float(max(sizes.values())),
        "leaf_entries_mean": float(np.mean(leaf_sizes)),
        "connections_mean": float(np.mean(list(conns.values()))),
    }
    rendered = table(
        ["metric", "mean", "max"],
        [
            ["routing table entries (all)", metrics["table_entries_mean"],
             int(metrics["table_entries_max"])],
            ["routing table entries (leaves)", metrics["leaf_entries_mean"],
             max(leaf_sizes)],
            ["active connections", metrics["connections_mean"],
             max(conns.values())],
        ],
        title=f"§III.e table-size check (n={n})",
    )
    checks = [
        # Greedy is not guaranteed loop-free/complete (paper Fig. 4);
        # allow the occasional dead end.
        Check("healthy_lookups_succeed", found >= lookups * 0.98,
              f"{found}/{lookups} lookups found"),
        Check("leaf_tables_tiny", np.mean(leaf_sizes) < 15,
              f"leaf mean entries = {np.mean(leaf_sizes):.1f} (< 15)"),
        # §III.e's far-from-O(n) claim only bites at scale; the floor keeps
        # small --set n=... overrides from tripping a meaningless bound.
        Check("no_table_near_o_n", max(sizes.values()) < max(n // 8, 32),
              f"max entries = {max(sizes.values())} "
              f"(< max(n/8, 32) = {max(n // 8, 32)})"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


# -------------------------------------------------------------- table sizes

@dataclass(frozen=True)
class _SizeRow:
    """Measured vs theoretical bound for one node class (§III.e)."""

    node_class: str
    count: int
    entries_mean: float
    entries_max: int
    entries_bound: float
    connections_mean: float
    connections_bound: float

    def within_bounds(self, slack: float) -> bool:
        """Means within `slack`x the paper's figure (the formulas are
        per-node with their own li/Li/ci terms; we compare class means to
        the bound evaluated at class-typical values)."""
        return (self.entries_mean <= slack * self.entries_bound
                and self.connections_mean <= slack * self.connections_bound)


def _size_rows(n: int, seed: int, case: str) -> List[_SizeRow]:
    """Build one network and measure table/connection sizes per node class
    next to §III.e's bounds: for ``l0`` level-0 connections, height ``h``
    and per-node child/neighbour counts ``ca``/``da``, a level-0-only node
    stores ``l0 + h`` entries over ``l0 + 1`` active connections; a level-i
    node stores ``l0 + li + Li + ci + ca + da + h - i``; level-1 nodes keep
    ``l0 + ca + da`` connections, upper nodes ``l0 + ca + da + 2``."""
    cfg = TreePConfig.paper_case1() if case == "case1" else TreePConfig.paper_case2()
    net = TreePNetwork(config=cfg, seed=seed)
    h = net.build(n).height
    l0 = 2.0
    sizes = net.routing_table_sizes()
    conns = net.active_connection_counts()

    by_class: Dict[str, List[int]] = {}
    for ident, node in net.nodes.items():
        if node.max_level == 0:
            key = "level-0 only"
        elif node.max_level == 1:
            key = "level 1"
        else:
            key = "level >= 2"
        by_class.setdefault(key, []).append(ident)

    rows: List[_SizeRow] = []
    for key in ("level-0 only", "level 1", "level >= 2"):
        members = by_class.get(key, [])
        if not members:
            continue
        ca = float(np.mean([len(net.nodes[i].table.children) for i in members]))
        da = 2.0
        li, indirect = 2.0, 2.0
        if key == "level-0 only":
            entries_bound = l0 + h
            conn_bound = l0 + 1
        elif key == "level 1":
            # l0 + li + Li + ci + ca + da + h - i, with the replicated
            # terms at their class-typical values.
            entries_bound = l0 + li + indirect + ca + ca + da + h - 1
            conn_bound = l0 + ca + da
        else:
            lvl = float(np.mean([net.nodes[i].max_level for i in members]))
            entries_bound = l0 + li + indirect + ca + ca + da + h - lvl
            conn_bound = l0 + ca + da + 2
        rows.append(_SizeRow(
            node_class=key,
            count=len(members),
            entries_mean=float(np.mean([sizes[i] for i in members])),
            entries_max=int(max(sizes[i] for i in members)),
            entries_bound=float(entries_bound),
            connections_mean=float(np.mean([conns[i] for i in members])),
            connections_bound=float(conn_bound),
        ))
    return rows


def _table_sizes(params, seed, smoke):
    n = params["n"]
    by_case = {case: _size_rows(n, seed, case) for case in ("case1", "case2")}
    rows1, rows2 = by_case["case1"], by_case["case2"]
    rendered = "\n\n".join(
        table(
            ["node class", "count", "entries mean", "entries max",
             "paper bound", "connections mean", "paper bound"],
            [[r.node_class, r.count, r.entries_mean, r.entries_max,
              r.entries_bound, r.connections_mean, r.connections_bound]
             for r in rows],
            title=f"§III.e routing-table sizes, measured vs paper ({case}, n={n})",
        ) for case, rows in by_case.items())
    classes = {r.node_class: r for r in rows1}
    leaf = classes["level-0 only"]
    metrics = {
        "case1_leaf_fraction": leaf.count / n,
        "case1_leaf_connections_mean": leaf.connections_mean,
        "case1_max_entries_mean": max(r.entries_mean for r in rows1),
        "case2_max_entries_mean": max(r.entries_mean for r in rows2),
    }
    checks = [
        Check("leaves_are_the_majority", leaf.count > n * 0.5,
              f"{leaf.count}/{n} nodes are level-0 only"),
        Check("leaf_connections_near_bound",
              leaf.connections_mean <= leaf.connections_bound + 1.0,
              f"{leaf.connections_mean:.1f} vs bound "
              f"{leaf.connections_bound:.1f} (+1)"),
        Check("case1_within_2x_bounds",
              all(r.within_bounds(slack=2.0) for r in rows1),
              "every case-1 class mean within 2x the paper formula"),
        Check("case2_within_bounds",
              all(r.within_bounds(slack=2.5) for r in rows2),
              "every case-2 class mean within 2.5x the paper formula"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


# ---------------------------------------------------------------- ngsa cost

class _AlgoCost(NamedTuple):
    success_rate: float
    avg_hops: float
    messages_per_lookup: float
    bytes_per_lookup: float


def _ngsa_cost(params, seed, smoke):
    """§IV.a's bandwidth verdict on NGSA, measured: NGSA carries alternate
    candidates inside every request ("at the expense of adding data to the
    request"), so its cost shows up as bytes on the wire, not as extra
    messages.  One lookup batch, replayed under each algorithm at
    *dead_fraction* failed nodes."""
    n, lookups = params["n"], params["lookups"]
    dead_fraction = params["dead_fraction"]
    if not 0.0 <= dead_fraction < 0.95:
        raise ValueError(f"dead_fraction must be in [0, 0.95), got {dead_fraction}")
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    net.build(n)
    surviving = fail_until(net, dead_fraction)
    pairs = LookupWorkload(rng=net.rng.get("workload")).pairs(surviving, lookups)

    out: Dict[str, _AlgoCost] = {}
    for algo in ("G", "NG", "NGSA"):
        before = net.network.stats
        sent0, bytes0 = before.sent, before.bytes_sent
        results = net.run_lookup_batch(pairs, algo)
        stats = net.network.stats
        found = [r for r in results if r.found]
        out[algo] = _AlgoCost(
            success_rate=len(found) / len(results),
            avg_hops=float(np.mean([r.hops for r in found])) if found else 0.0,
            messages_per_lookup=(stats.sent - sent0) / len(results),
            bytes_per_lookup=(stats.bytes_sent - bytes0) / len(results),
        )
    rendered = table(
        ["algorithm", "success", "avg hops", "msgs/lookup", "bytes/lookup"],
        [[algo, *cost] for algo, cost in out.items()],
        title=(f"NGSA cost-benefit (§IV.a), n={n}, "
               f"{dead_fraction:.0%} dead nodes, {lookups} lookups"),
    )
    g, ng, ngsa = out["G"], out["NG"], out["NGSA"]
    ngsa_bpm = ngsa.bytes_per_lookup / max(ngsa.messages_per_lookup, 1e-9)
    ng_bpm = ng.bytes_per_lookup / max(ng.messages_per_lookup, 1e-9)
    metrics = {
        "g_success": g.success_rate,
        "ng_success": ng.success_rate,
        "ngsa_success": ngsa.success_rate,
        "ng_bytes_per_msg": ng_bpm,
        "ngsa_bytes_per_msg": ngsa_bpm,
    }
    checks = [
        Check("ngsa_gain_marginal", ngsa.success_rate <= ng.success_rate + 0.05,
              f"NGSA {ngsa.success_rate:.2f} vs NG {ng.success_rate:.2f}"),
        Check("ngsa_costs_more_bytes", ngsa_bpm > ng_bpm,
              f"bytes/msg NGSA {ngsa_bpm:.1f} > NG {ng_bpm:.1f}"),
        Check("all_resolve_majority",
              all(c.success_rate >= 0.7 for c in out.values()),
              f"min success {min(c.success_rate for c in out.values()):.2f}"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


# ---------------------------------------------------------------- baselines

def _baselines(params, seed, smoke):
    n, lookups = params["n"], params["lookups"]
    flood_lookups = max(lookups // 4, 20)
    # A 256-node overlay fragments harder at 30% dead than the paper-scale
    # one; the resilience floor only reaches 70% at n >= 1024.
    survive_floor = 45.0 if smoke else 70.0
    rng = np.random.default_rng(seed)
    treep = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    chord, flood = ChordNetwork(seed=seed), FloodNetwork(seed=seed)
    rows = []
    for name, net, count, heal in (
        ("TreeP (G)", treep, lookups,
         lambda victims: apply_failure_step(treep, victims, PAPER_POLICY)),
        ("Chord", chord, lookups, lambda victims: chord.repair_step()),
        ("Flooding", flood, flood_lookups, lambda victims: flood.repair_step()),
    ):
        net.build(n)
        m0 = net.network.stats.sent
        healthy = net.run_lookup_batch(lookup_pairs(rng, net.ids, count))
        msgs = (net.network.stats.sent - m0) / count
        victims = [int(v) for v in rng.choice(net.ids, int(0.3 * n), replace=False)]
        net.fail_nodes(victims)
        heal(victims)
        failed = net.run_lookup_batch(lookup_pairs(rng, net.alive_ids(), count))
        rows.append((name, healthy, failed, msgs))

    out: Dict[str, Dict[str, float]] = {}
    for name, healthy_batch, failed_batch, msg_rate in rows:
        ok = [r for r in healthy_batch if r.found]
        okf = [r for r in failed_batch if r.found]
        out[name] = dict(
            success=100 * len(ok) / len(healthy_batch),
            hops=float(np.mean([r.hops for r in ok])) if ok else 0.0,
            msgs_per_lookup=float(msg_rate),
            success_30pct_dead=100 * len(okf) / len(failed_batch),
        )
    rendered = table(
        ["overlay", "success%", "hops", "msgs/lookup", "success%@30%dead"],
        [[k, v["success"], v["hops"], v["msgs_per_lookup"],
          v["success_30pct_dead"]] for k, v in out.items()],
        title=f"TreeP vs baselines (n={n})",
    )
    metrics = {
        "treep_success_pct": out["TreeP (G)"]["success"],
        "treep_hops": out["TreeP (G)"]["hops"],
        "treep_msgs_per_lookup": out["TreeP (G)"]["msgs_per_lookup"],
        "treep_success_pct_30_dead": out["TreeP (G)"]["success_30pct_dead"],
        "chord_hops": out["Chord"]["hops"],
        "flood_msgs_per_lookup": out["Flooding"]["msgs_per_lookup"],
    }
    checks = [
        Check("treep_healthy", out["TreeP (G)"]["success"] >= 99.0,
              f"TreeP success {out['TreeP (G)']['success']:.1f}%"),
        Check("chord_healthy", out["Chord"]["success"] >= 99.0,
              f"Chord success {out['Chord']['success']:.1f}%"),
        Check("flooding_pays_messages",
              out["Flooding"]["msgs_per_lookup"]
              > 20 * out["TreeP (G)"]["msgs_per_lookup"],
              f"flooding {out['Flooding']['msgs_per_lookup']:.0f} vs TreeP "
              f"{out['TreeP (G)']['msgs_per_lookup']:.1f} msgs/lookup"),
        Check("structured_overlays_log_n",
              out["TreeP (G)"]["hops"] <= 2 * np.log2(n)
              and out["Chord"]["hops"] <= 2 * np.log2(n),
              f"TreeP {out['TreeP (G)']['hops']:.1f} / Chord "
              f"{out['Chord']['hops']:.1f} hops (<= 2 log2 n)"),
        Check("treep_survives_failures",
              out["TreeP (G)"]["success_30pct_dead"] >= survive_floor,
              f"TreeP at 30% dead: "
              f"{out['TreeP (G)']['success_30pct_dead']:.1f}% "
              f"(>= {survive_floor:g}%)"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


# ------------------------------------------------------------------ storage

def _storage(params, seed, smoke):
    n, n_keys = params["n"], params["keys"]
    quorum = QuorumConfig(n=3, w=2, r=2)

    def loaded_cluster(run_seed, anti_entropy=30.0):
        cluster = (Cluster(config=TreePConfig.paper_case1(), seed=run_seed)
                   .build(n)
                   .with_storage(quorum, anti_entropy=anti_entropy))
        for i in range(n_keys):
            if not cluster.storage.put(f"bench/{i:04d}", {"i": i}).ok:
                raise RuntimeError(f"seed load failed at bench/{i:04d}")
        return cluster

    # -- quorum PUT/GET on a healthy cluster ------------------------------
    cluster = loaded_cluster(seed)
    store = cluster.storage
    put_acks = sum(store.put(f"put/{i:06d}", i).ok for i in range(50))
    rng = np.random.default_rng(0)
    hits = sum(store.get(f"bench/{int(i):04d}").found
               for i in rng.integers(0, n_keys, size=50))

    # -- anti-entropy sweep cost after 20% mass failure -------------------
    net, ae = cluster.net, cluster.anti_entropy
    rng = np.random.default_rng(1)
    victims = [int(v) for v in rng.choice(net.ids, n // 5, replace=False)]
    cluster.fail_nodes(victims, heal=True)
    net.network.reset_stats()
    report = ae.sweep()
    net.sim.run()
    min_rf_after_sweep = min(store.replication_factors().values())

    # -- durability under 30% burst churn ---------------------------------
    cluster2 = loaded_cluster(seed + 1, anti_entropy=10.0)
    net2, store2, ae2 = cluster2.net, cluster2.storage, cluster2.anti_entropy
    churn_rng = net2.rng.get("bench-churn")
    order = [int(v) for v in churn_rng.permutation(net2.ids)]
    total, burst = int(0.30 * n), max(n // 20, 1)
    killed = 0
    while killed < total:
        step = order[killed:killed + min(burst, total - killed)]
        killed += len(step)
        cluster2.fail_nodes(step, heal=True)
        ae2.converge()
    alive = net2.alive_ids()
    readable = sum(store2.get(f"bench/{i:04d}", via=alive[i % len(alive)]).found
                   for i in range(n_keys))
    min_rf_after_churn = min(store2.replication_factors().values())

    metrics = {
        "ae_under_replicated_first_sweep": float(report.under_replicated),
        "ae_repairs_first_sweep": float(report.repairs_sent),
        "min_rf_after_sweep": float(min_rf_after_sweep),
        "churn_readable_fraction": readable / n_keys,
        "min_rf_after_churn": float(min_rf_after_churn),
    }
    rendered = table(
        ["metric", "value"],
        [
            ["keys under-replicated (first sweep)", report.under_replicated],
            ["repair datagrams (first sweep)", report.repairs_sent],
            ["min live rf after repair", min_rf_after_sweep],
            ["population / alive after churn", f"{n} / {len(alive)}"],
            ["keys readable after churn", f"{readable}/{n_keys}"],
            ["min replication factor after churn", min_rf_after_churn],
        ],
        title=f"replicated storage (n={n}, keys={n_keys}, N=3 W=2 R=2)",
    )
    checks = [
        Check("throughput_writes_all_acked", put_acks == 50,
              f"{put_acks}/50 PUTs reached W acks"),
        Check("throughput_reads_all_hit", hits == 50, f"{hits}/50 GETs found"),
        Check("sweep_restores_full_rf", min_rf_after_sweep == quorum.n,
              f"min rf after sweep = {min_rf_after_sweep} (== N)"),
        Check("churn_keys_all_readable", readable == n_keys,
              f"{readable}/{n_keys} keys quorum-readable after 30% churn"),
        Check("churn_restores_full_rf", min_rf_after_churn == quorum.n,
              f"min rf after churn = {min_rf_after_churn} (== N)"),
        Check("never_lost_below_quorum",
              all(r.lost == 0 for r in ae2.reports),
              "no key ever dropped below quorum readability"),
    ]
    cluster.shutdown()
    cluster2.shutdown()
    return ScenarioOutput(metrics, checks, rendered)


# ------------------------------------------------------------------ compute

def _burst_churn_schedule(net, kill_fraction, burst, spacing):
    """Seeded timed leave events killing *kill_fraction* in bursts."""
    rng = net.rng.get("bench-compute-churn")
    order = [int(v) for v in rng.permutation(net.ids)]
    total = int(round(kill_fraction * len(net.ids)))
    events = [
        ChurnEvent(time=spacing * (1 + i // burst), kind="leave", node=order[i])
        for i in range(total)
    ]
    return ChurnSchedule(events=events)


def _compute_run(params, seed, checkpointing):
    """One full churn run; returns (all_done, SchedulingStats, alive)."""
    cluster = (Cluster(config=TreePConfig.paper_case1(), seed=seed)
               .build(params["nodes"])
               .with_storage(QuorumConfig(n=3, w=2, r=2), anti_entropy=10.0)
               .with_compute(ComputeConfig(
                   checkpoint_interval=params["checkpoint_interval"]
                   if checkpointing else None)))
    net, grid = cluster.net, cluster.compute

    wl = JobWorkload(rng=net.rng.get("bench-compute-jobs"),
                     arrival_rate=1.0, work_mean=150.0, work_sigma=0.4,
                     constrained_fraction=0.25)
    specs = (wl.jobs(params["stream_jobs"])
             + wl.dag_batch(tuple(params["dag_layers"]), work=60.0))
    grid.schedule_submissions(specs)

    play_leave_bursts(cluster, _burst_churn_schedule(
        net, params["kill_fraction"], params["burst"],
        params["burst_spacing"]))

    done = grid.run_until_done(timeout=params["deadline"])
    stats = grid.stats()
    alive = len(net.alive_ids())
    cluster.shutdown()
    return done, stats, alive


def _steady_state_run(params, seed):
    """No churn: dispatch → heartbeat → complete for one job batch."""
    cluster = (Cluster(config=TreePConfig.paper_case1(), seed=seed + 7)
               .build(params["nodes"]).with_compute())
    net, grid = cluster.net, cluster.compute
    wl = JobWorkload(rng=net.rng.get("bench-steady"), arrival_rate=2.0,
                     work_mean=15.0, constrained_fraction=0.0)
    grid.schedule_submissions(wl.jobs(20, start=net.sim.now))
    done = grid.run_until_done(timeout=400.0)
    stats = grid.stats()
    cluster.shutdown()
    return done, stats


def _compute(params, seed, smoke):
    done_ck, stats_ck, alive = _compute_run(params, seed, checkpointing=True)
    done_rs, stats_rs, _ = _compute_run(params, seed, checkpointing=False)
    done_ss, stats_ss = _steady_state_run(params, seed)

    rows = [["population / alive", f"{params['nodes']} / {alive}"]]
    for label, stats in (("checkpoint", stats_ck), ("restart", stats_rs),
                         ("steady-state", stats_ss)):
        for name, value in stats.summary_rows():
            rows.append([f"{label}: {name}", value])
    rendered = table(["metric", "value"], rows,
                     title="grid jobs under 30% burst churn")
    metrics = {
        "checkpoint_completion_rate": stats_ck.completion_rate,
        "checkpoint_wasted_work": stats_ck.wasted_work,
        "restart_wasted_work": stats_rs.wasted_work,
        "checkpoint_goodput": stats_ck.goodput,
        "checkpoint_makespan": stats_ck.makespan,
        "reexecutions": float(stats_ck.reexecutions),
        "checkpoints_written": float(stats_ck.checkpoints_written),
        "steady_goodput": stats_ss.goodput,
        "steady_completion_rate": stats_ss.completion_rate,
    }
    checks = [
        Check("checkpoint_run_finished", bool(done_ck),
              "checkpointing run completed every job"),
        Check("full_completion", stats_ck.completion_rate == 1.0,
              f"completion rate {stats_ck.completion_rate:.2f}"),
        Check("churn_actually_bit", stats_ck.reexecutions > 0,
              f"{stats_ck.reexecutions} re-executions (scenario not too mild)"),
        Check("checkpoints_flowed", stats_ck.checkpoints_written > 0,
              f"{stats_ck.checkpoints_written} checkpoints written"),
        Check("checkpointing_beats_restart",
              stats_ck.wasted_work < stats_rs.wasted_work,
              f"wasted work {stats_ck.wasted_work:.1f} < "
              f"{stats_rs.wasted_work:.1f}"),
        Check("steady_state_completes",
              bool(done_ss) and stats_ss.completion_rate == 1.0,
              f"no-churn completion rate {stats_ss.completion_rate:.2f}"),
        Check("steady_state_no_rework", stats_ss.goodput > 0.99,
              f"no-churn goodput {stats_ss.goodput:.3f} "
              "(nothing re-run without churn)"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


# ------------------------------------------------------------- registration

registry.register(Scenario(
    name="core", group="core",
    description="overlay micro-benches: healthy lookup success, §III.e tables",
    runner=_core,
    params={"n": 1024, "lookups": 100},
    smoke_params={"n": 256, "lookups": 60},
    metrics=(
        Metric("lookup_success_rate", "fraction", "higher"),
        Metric("table_entries_mean", "entries", "lower"),
        Metric("table_entries_max", "entries", "lower"),
        Metric("leaf_entries_mean", "entries", "lower"),
        Metric("connections_mean", "conns", "lower"),
    )))

registry.register(Scenario(
    name="table_sizes", group="core",
    description="§III.e routing-table sizes vs the paper's formulas, both cases",
    runner=_table_sizes,
    params={"n": 1024},
    smoke_params={"n": 256},
    metrics=(
        Metric("case1_leaf_fraction", "fraction", "higher",
               "share of the network that is level-0 only"),
        Metric("case1_leaf_connections_mean", "conns", "lower"),
        Metric("case1_max_entries_mean", "entries", "lower"),
        Metric("case2_max_entries_mean", "entries", "lower"),
    )))

registry.register(Scenario(
    name="ngsa_cost", group="core",
    description="§IV.a NGSA bandwidth verdict: success vs bytes at 30% dead",
    runner=_ngsa_cost,
    params={"n": 1024, "lookups": 300, "dead_fraction": 0.30},
    smoke_params={"n": 256, "lookups": 100},
    metrics=(
        Metric("g_success", "fraction", "higher"),
        Metric("ng_success", "fraction", "higher"),
        Metric("ngsa_success", "fraction", "higher"),
        Metric("ng_bytes_per_msg", "bytes", "lower"),
        Metric("ngsa_bytes_per_msg", "bytes", "neutral",
               "NGSA's state piggyback cost"),
    )))

registry.register(Scenario(
    name="baselines", group="baselines",
    description="TreeP vs Chord vs flooding on the same simulated substrate",
    runner=_baselines,
    params={"n": 1024, "lookups": 200},
    smoke_params={"n": 256, "lookups": 80},
    metrics=(
        Metric("treep_success_pct", "%", "higher"),
        Metric("treep_hops", "hops", "lower"),
        Metric("treep_msgs_per_lookup", "msgs", "lower"),
        Metric("treep_success_pct_30_dead", "%", "higher"),
        Metric("chord_hops", "hops", "neutral"),
        Metric("flood_msgs_per_lookup", "msgs", "neutral"),
    )))

registry.register(Scenario(
    name="storage", group="storage",
    description=("replicated storage: quorum acks, anti-entropy cost, "
                 "100% durability under 30% burst churn"),
    runner=_storage,
    params={"n": 256, "keys": 120},
    smoke_params={"n": 96, "keys": 40},
    metrics=(
        Metric("ae_under_replicated_first_sweep", "keys", "neutral"),
        Metric("ae_repairs_first_sweep", "msgs", "lower",
               "repair datagrams to heal a 20% mass failure"),
        Metric("min_rf_after_sweep", "replicas", "higher"),
        Metric("churn_readable_fraction", "fraction", "higher",
               "keys quorum-readable after 30% churn"),
        Metric("min_rf_after_churn", "replicas", "higher"),
    )))

registry.register(Scenario(
    name="compute", group="compute",
    description=("grid scheduling under 30% burst churn: 100% completion, "
                 "checkpointing strictly beats restart on wasted work"),
    runner=_compute,
    params={"nodes": 96, "stream_jobs": 24, "dag_layers": (3, 4, 2, 1),
            "kill_fraction": 0.30, "burst": 6, "burst_spacing": 15.0,
            "deadline": 1500.0, "checkpoint_interval": 8.0},
    smoke_params={"nodes": 64, "stream_jobs": 12, "dag_layers": (2, 2, 1)},
    metrics=(
        Metric("checkpoint_completion_rate", "fraction", "higher"),
        Metric("checkpoint_wasted_work", "work", "lower"),
        Metric("restart_wasted_work", "work", "neutral"),
        Metric("checkpoint_goodput", "fraction", "higher"),
        Metric("checkpoint_makespan", "sim s", "lower"),
        Metric("reexecutions", "count", "neutral"),
        Metric("checkpoints_written", "count", "neutral"),
        Metric("steady_goodput", "fraction", "higher",
               "useful/executed work with zero churn"),
        Metric("steady_completion_rate", "fraction", "higher"),
    )))
