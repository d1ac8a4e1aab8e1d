"""The benchmark's one table: every workload, metric and traced layer.

``run.py --describe`` renders it, ``BENCHMARK.json`` is generated from it
(``run.py --describe --json``) and the self-test fails when the committed
file and this table disagree, so the contract the driver reads and the
numbers the runner emits cannot drift apart.

Clocks: ``host`` numbers are what the researcher waits for (noisy,
machine-dependent); ``sim`` numbers are what the modelled overlay does and
``count`` numbers are work counters — both repeat exactly at a fixed seed,
and the runner fails the run when they do not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Measured-phase seconds of one round on the 2-core reference box; the
#: driver's ``--seconds`` buys ``round(seconds / ROUND_NOMINAL_S)`` rounds.
ROUND_NOMINAL_S = 4
#: Rounds per workload in the default (full) invocation.
FULL_ROUNDS = 4
#: ``run_seconds`` written to BENCHMARK.json (three rounds per driver run:
#: the driver makes 114 runs in 3420 s, and a round costs 4-6 s with set-up).
RUN_SECONDS = 12
#: The scenario — overlay topology and, on churn_repair, the crash order —
#: is drawn from this fixed seed; ``--seed`` draws the requests (lookup
#: pairs, key/op stream, job stream).  The overlay is part of the system
#: under test: letting it vary with ``--seed`` moved the ``sim_*`` metrics
#: by up to 30 % from seed to seed, which no regression bound survives.
#: Seed 9 is an overlay on which greedy lookups do not fail at N=10000.
SCENARIO_SEED = 9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str          # one line, <= 200 chars: goes into BENCHMARK.json
    op: str           # what one counted operation is
    loop: str         # closed / open / batch, with client count or rate
    sizes: Dict[str, float]
    smoke: Dict[str, float]


#: ``success_floor`` is the lookup oracle (ISSUE 11): >= 98 % found on a
#: steady overlay, >= 90 % after 30 % churn at N=5000.
_LOOKUP_SIZES = {"nodes": 10000, "segments": 10, "segment_ops": 1200, "warmup_ops": 1200,
                 "success_floor": 0.98}
_LOOKUP_SMOKE = {"nodes": 300, "segments": 3, "segment_ops": 60, "warmup_ops": 60,
                 "success_floor": 0.98}

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "lookup_steady",
        "Static 10k overlay, 10x1200 greedy lookups: core.lookup+core.node "
        "dominate, routing tables read-only so candidate caches always hit; "
        "storage/compute/repair/obs idle.",
        op="one lookup resolved",
        loop="batch: a segment's lookups are issued at one sim instant, then drained",
        sizes=_LOOKUP_SIZES, smoke=_LOOKUP_SMOKE,
    ),
    Workload(
        "lookup_observed",
        "Same inputs and build as lookup_steady with the obs hub attached: the "
        "obs-on half of the pair; an obs change shows here and must not move "
        "lookup_steady.",
        op="one lookup resolved",
        loop="batch: a segment's lookups are issued at one sim instant, then drained",
        sizes=_LOOKUP_SIZES, smoke=_LOOKUP_SMOKE,
    ),
    Workload(
        "churn_repair",
        "N=5000, 5 bursts x 300 crashes (30%) with PAPER_POLICY repair, then 300 "
        "lookups (G+NGSA) per burst: core.repair works off-engine and routing "
        "tables are written, so caches miss.",
        op="one crash absorbed or one post-burst lookup resolved",
        loop="batch: each burst is crashed, repaired, then probed",
        sizes={"nodes": 5000, "bursts": 5, "burst_crashes": 300, "burst_lookups": 300,
               "warmup_ops": 300, "success_floor": 0.90},
        # a few hundred peers fragment harder under churn: lower floor
        smoke={"nodes": 300, "bursts": 3, "burst_crashes": 18, "burst_lookups": 30,
               "warmup_ops": 30, "success_floor": 0.45},
    ),
    Workload(
        "storage_rw",
        "N=5000, quorum 3/2/2, 2048 seeded keys, 15x2000 ops 70% GET/30% PUT "
        "Zipf(1.1), closed loop 1 client: storage.quorum handlers and the "
        "sim.step pump path; core routing minor.",
        op="one PUT or GET returned",
        loop="closed loop, 1 client: each put/get pumps the sim until its reply",
        sizes={"nodes": 5000, "keys": 2048, "segments": 15, "segment_ops": 2000,
               "warmup_ops": 1000},
        smoke={"nodes": 200, "keys": 64, "segments": 3, "segment_ops": 80,
               "warmup_ops": 40},
    ),
    Workload(
        "grid_jobs",
        "N=2000 with storage+compute, 1000 jobs Poisson 4/s sim time, lognormal "
        "work mean 30 s (cap 90), 25% constrained, no churn: timer/probe driven, sim.* and "
        "compute dominate, core.lookup idle.",
        op="one job completed",
        loop="open loop in sim time (Poisson 4 jobs/s), batch in host time",
        sizes={"nodes": 2000, "jobs": 1000, "rate": 4.0, "work_mean": 30.0,
               "window_s": 10.0, "timeout_s": 2000.0},
        smoke={"nodes": 200, "jobs": 30, "rate": 4.0, "work_mean": 8.0,
               "window_s": 10.0, "timeout_s": 600.0},
    ),
)

WORKLOAD_INDEX = {w.name: i for i, w in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str                 # host | sim | count
    better: str                # higher | lower
    layer: str                 # "end_to_end" or the module the number belongs to
    why: str
    bound: Optional[float] = None   # end-to-end only: share of the parent's median
    moves: str = ""            # which end-to-end metric / workload it should move

    @property
    def exact(self) -> bool:
        """Repeats bit-identically at a fixed seed (checked by the runner)."""
        return self.clock != "host"


def _e2e(name, unit, clock, better, bound, why):
    return Metric(name, unit, clock, better, "end_to_end", why, bound=bound)


END_TO_END: Tuple[Metric, ...] = (
    _e2e("setup_s", "s", "host", "lower", 0.25,
         "round start to ready-to-measure: import repro, build, with_* attaches, "
         "key seeding, warm-up (input generation excluded)"),
    _e2e("ops_per_s", "ops/s", "host", "higher", 0.25,
         "ops in the measured phase / its host seconds, each segment's time taken "
         "as the fastest of that segment over the run's rounds"),
    _e2e("peak_rss_mb", "MiB", "host", "lower", 0.05,
         "ru_maxrss of a round's process, max over rounds"),
    _e2e("sim_success_rate", "fraction", "sim", "higher", 0.02,
         "ops that succeeded / ops attempted (found lookup, acked PUT or hit GET, "
         "job ok, crash absorbed)"),
    _e2e("sim_mean_hops", "hops", "sim", "lower", 0.10,
         "mean LookupResult.hops / StoreResult.hops of successful ops, placement "
         "hops per job on grid_jobs"),
    _e2e("sim_msgs_per_op", "datagrams/op", "sim", "lower", 0.15,
         "network.stats.sent over the measured phase / ops: the paper's "
         "overlay-overhead axis"),
)


def _pl(layer, suffix, unit, clock, better, why, moves=""):
    return Metric(f"{layer}.{suffix}", unit, clock, better, layer, why, moves=moves)


_ENGINE_MOVES = "ops_per_s on grid_jobs most, every other workload partly"
_NET_MOVES = "sim_msgs_per_op everywhere; ops_per_s on grid_jobs, lookup_steady"
_TREEP_MOVES = "setup_s on all five; ops_per_s on lookup_steady, churn_repair"
_LOOKUP_MOVES = "sim_success_rate, sim_mean_hops on the three lookup workloads"
_RT_MOVES = ("peak_rss_mb on lookup_steady; post_churn_lookups_per_s -> ops_per_s "
             "on churn_repair")
_REPAIR_MOVES = "ops_per_s on churn_repair only"
_QUORUM_MOVES = "ops_per_s on storage_rw; slightly on grid_jobs"
_AE_MOVES = "none end-to-end (diagnostic)"
_COMPUTE_MOVES = "ops_per_s, sim_mean_hops on grid_jobs"
_CLUSTER_MOVES = "setup_s on storage_rw, grid_jobs, lookup_observed"
_OBS_MOVES = "ops_per_s, peak_rss_mb on lookup_observed only"
_RUNTIME_MOVES = "setup_s; ops_per_s wherever allocation falls"
_BENCH_MOVES = "none: the benchmark's own cost"

COUNTED: Tuple[Metric, ...] = (
    _pl("sim.engine", "events", "count", "count", "lower",
        "sim.events_processed over the measured phase", _ENGINE_MOVES),
    _pl("sim.engine", "events_per_op", "events/op", "count", "lower",
        "events / ops: fewer events at equal ops/s is a win", _ENGINE_MOVES),
    _pl("sim.engine", "events_per_s", "events/s", "host", "higher",
        "events / measured host seconds (a layer rate, never an end-to-end one)",
        _ENGINE_MOVES),
    _pl("sim.engine", "pending_end", "count", "count", "lower",
        "sim.pending when the measured phase ends (timers still armed)", _ENGINE_MOVES),
    _pl("sim.network", "sent", "count", "count", "lower",
        "datagrams sent in the measured phase", _NET_MOVES),
    _pl("sim.network", "delivered", "count", "count", "higher",
        "datagrams delivered in the measured phase", _NET_MOVES),
    _pl("sim.network", "dropped", "count", "count", "lower",
        "datagrams dropped (loss, down, unknown, partition)", _NET_MOVES),
    _pl("sim.network", "bytes_sent", "bytes", "count", "lower",
        "wire bytes sent in the measured phase", _NET_MOVES),
    _pl("sim.network", "delivery_ratio", "fraction", "count", "higher",
        "delivered / sent: useful outcomes per attempt", _NET_MOVES),
    _pl("core.treep", "build_s", "s", "host", "lower",
        "Cluster.build / TreePNetwork.build host time", _TREEP_MOVES),
    _pl("core.treep", "lookup_batch_s", "s", "host", "lower",
        "sum of run_lookup_batch host time in the measured phase", _TREEP_MOVES),
    _pl("core.treep", "post_churn_lookups_per_s", "1/s", "host", "higher",
        "post-burst lookups / their host time (churn_repair only)", _TREEP_MOVES),
    _pl("core.lookup", "lookups", "count", "count", "higher",
        "lookups issued in the measured phase", _LOOKUP_MOVES),
    _pl("core.lookup", "not_found", "count", "count", "lower",
        "lookups that returned found=False", _LOOKUP_MOVES),
    _pl("core.lookup", "timed_out", "count", "count", "lower",
        "lookups that ended by timeout", _LOOKUP_MOVES),
    _pl("core.lookup", "mean_hops", "hops", "sim", "lower",
        "mean hops of found lookups", _LOOKUP_MOVES),
    _pl("core.routing_table", "entries_mean", "count", "count", "lower",
        "mean routing_table_sizes() after the phase", _RT_MOVES),
    _pl("core.routing_table", "entries_max", "count", "count", "lower",
        "max routing_table_sizes() after the phase", _RT_MOVES),
    _pl("core.routing_table", "version_bumps", "count", "count", "lower",
        "sum of RoutingTable.version deltas over the phase (0 on lookup_steady "
        "by construction)", _RT_MOVES),
    _pl("core.repair", "step_s", "s", "host", "lower",
        "sum of fail_nodes + apply_failure_step host time over the bursts",
        _REPAIR_MOVES),
    _pl("core.repair", "crashes_per_s", "1/s", "host", "higher",
        "crashes absorbed / core.repair.step_s", _REPAIR_MOVES),
    _pl("storage.quorum", "put_s", "s", "host", "lower",
        "sum of store.put host time", _QUORUM_MOVES),
    _pl("storage.quorum", "get_s", "s", "host", "lower",
        "sum of store.get host time", _QUORUM_MOVES),
    _pl("storage.quorum", "put_p50_us", "us", "host", "lower",
        "median store.put host latency", _QUORUM_MOVES),
    _pl("storage.quorum", "put_p99_us", "us", "host", "lower",
        "p99 store.put host latency", _QUORUM_MOVES),
    _pl("storage.quorum", "get_p50_us", "us", "host", "lower",
        "median store.get host latency", _QUORUM_MOVES),
    _pl("storage.quorum", "get_p99_us", "us", "host", "lower",
        "p99 store.get host latency", _QUORUM_MOVES),
    _pl("storage.quorum", "put_failed", "count", "count", "lower",
        "PUTs that were not quorum-acked", _QUORUM_MOVES),
    _pl("storage.quorum", "get_missed", "count", "count", "lower",
        "GETs that resolved to no value", _QUORUM_MOVES),
    _pl("storage.quorum", "stale_reads", "count", "count", "lower",
        "GETs that returned something other than the last acked PUT", _QUORUM_MOVES),
    _pl("storage.quorum", "mean_hops", "hops", "sim", "lower",
        "mean StoreResult.hops of successful ops", _QUORUM_MOVES),
    _pl("storage.antientropy", "converge_s", "s", "host", "lower",
        "one explicit converge() after the phase, outside ops_per_s", _AE_MOVES),
    _pl("storage.antientropy", "repair_datagrams", "count", "count", "lower",
        "repairs that converge() sent", _AE_MOVES),
    _pl("compute.scheduler", "run_s", "s", "host", "lower",
        "run_until_done host time", _COMPUTE_MOVES),
    _pl("compute.scheduler", "placement_hops_mean", "hops", "sim", "lower",
        "tree-edge traversals per matchmaking decision", _COMPUTE_MOVES),
    _pl("compute.scheduler", "reexecutions", "count", "count", "lower",
        "jobs re-dispatched after a worker was declared dead", _COMPUTE_MOVES),
    _pl("compute.scheduler", "failovers", "count", "count", "lower",
        "scheduler failovers", _COMPUTE_MOVES),
    _pl("compute.worker", "steal_requests", "count", "count", "lower",
        "JobStealRequest datagrams sent (network.stats.by_type)", _COMPUTE_MOVES),
    _pl("compute.worker", "checkpoints_written", "count", "count", "lower",
        "quorum-stored progress checkpoints", _COMPUTE_MOVES),
    Metric("compute.goodput", "fraction", "sim", "higher", "compute.worker",
           "useful / executed work: 1.0 means nothing was re-run",
           moves=_COMPUTE_MOVES),
    _pl("cluster", "attach_s", "s", "host", "lower",
        "sum of with_* host time", _CLUSTER_MOVES),
    _pl("cluster", "shutdown_s", "s", "host", "lower",
        "cluster.shutdown() host time", _CLUSTER_MOVES),
    _pl("obs.hub", "spans", "count", "count", "lower",
        "span rows the hub recorded", _OBS_MOVES),
    _pl("obs.hub", "events", "count", "count", "lower",
        "event rows the hub recorded", _OBS_MOVES),
    _pl("obs.hub", "overhead_ratio", "ratio", "host", "lower",
        "ops_per_s of the same inputs with the hub off / with it on "
        "(lookup_steady / lookup_observed)", _OBS_MOVES),
    _pl("obs.store", "write_s", "s", "host", "lower",
        "observability.write(tmp) host time after the phase", _OBS_MOVES),
    _pl("obs.store", "bytes", "bytes", "host", "lower",
        "size of the written trace store", _OBS_MOVES),
    _pl("runtime", "import_s", "s", "host", "lower",
        "import numpy + repro in the round's fresh process", _RUNTIME_MOVES),
    _pl("runtime", "gc_s", "s", "host", "lower",
        "sum of collector pauses in the measured phase (gc.callbacks)",
        _RUNTIME_MOVES),
    _pl("runtime", "gc_gen2", "count", "host", "lower",
        "full collections in the measured phase", _RUNTIME_MOVES),
    _pl("bench", "gen_s", "s", "host", "lower",
        "input generation, excluded from every other metric", _BENCH_MOVES),
    _pl("bench", "trace_overhead_ratio", "ratio", "host", "lower",
        "untraced / traced ops_per_s", _BENCH_MOVES),
)

#: Layers the traced round folds cProfile self time into.  ``sim`` and
#: ``core`` split by module (the hot ones by name, the small value-type
#: modules into ``*.model`` / ``*.support``); every other package is one
#: layer; packages the benchmark never drives share ``offline``.
TRACED_LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.events", "sim.network", "sim.latency", "sim.conditions",
    "sim.support",
    "core.node", "core.lookup", "core.routing_table", "core.repair", "core.treep",
    "core.maintenance", "core.model",
    "storage", "compute", "services", "cluster", "obs", "metrics", "offline",
    "runtime", "bench",
)

_SPLIT_MODULES = {
    "sim": {"engine", "events", "network", "latency", "conditions"},
    "core": {"node", "lookup", "routing_table", "repair", "treep", "maintenance"},
}
_SPLIT_REST = {"sim": "sim.support", "core": "core.model"}
_PACKAGE_LAYER = {
    "storage": "storage", "compute": "compute", "services": "services",
    "cluster": "cluster", "obs": "obs", "metrics": "metrics",
    "baselines": "offline", "bench": "offline", "experiments": "offline",
    "lint": "offline", "viz": "offline", "workloads": "offline",
}


def layer_of(path: str) -> Optional[str]:
    """Traced layer of a profiled function's source *path*.

    ``None`` only for a file under ``repro/`` that no rule names — the
    self-test fails on that, so a new package cannot silently vanish from
    the attribution.
    """
    norm = path.replace("\\", "/")
    idx = norm.rfind("/repro/")
    if idx < 0:
        if "/benchmarks/perf/" in norm:
            return "bench"
        return "runtime"          # builtins, stdlib, numpy, generated code
    parts = norm[idx + len("/repro/"):].split("/")
    if len(parts) == 1:           # repro/__init__.py
        return "cluster"
    package, module = parts[0], parts[1].rsplit(".", 1)[0]
    if package in _SPLIT_MODULES:
        if module in _SPLIT_MODULES[package]:
            return f"{package}.{module}"
        return _SPLIT_REST[package]
    return _PACKAGE_LAYER.get(package)


TRACED: Tuple[Metric, ...] = tuple(
    m for layer in TRACED_LAYERS for m in (
        _pl(layer, "self_s", "s", "host", "lower",
            "cProfile tottime of the layer's functions in the measured phase "
            "(traced round)",
            "bounds what optimising the layer can save on that workload"),
        _pl(layer, "calls_in", "count", "count", "lower",
            "calls crossing into the layer from another layer (traced round)",
            "bounds what optimising the layer can save on that workload"),
    )
)

PER_LAYER: Tuple[Metric, ...] = COUNTED + TRACED
METRICS: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The driver-facing contract, rendered from this table."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def validate() -> None:
    """Raise ``ValueError`` when the table breaks the driver's limits."""
    names = [w.name for w in WORKLOADS] + [m.name for m in END_TO_END + PER_LAYER]
    for name in names:
        if not NAME_RE.match(name):
            raise ValueError(f"bad name {name!r}")
    if len(set(names)) != len(names):
        raise ValueError("a name is used twice")
    if not 2 <= len(WORKLOADS) <= 8:
        raise ValueError("2 to 8 workloads")
    if not 1 <= len(END_TO_END) <= 16 or not 1 <= len(PER_LAYER) <= 128:
        raise ValueError("1..16 end-to-end and 1..128 per-layer metrics")
    for w in WORKLOADS:
        if len(w.why) > 200 or "\n" in w.why:
            raise ValueError(f"{w.name}: why must be one line of <= 200 chars")
    for m in END_TO_END:
        if m.bound is None or not 0 < m.bound <= 0.25:
            raise ValueError(f"{m.name}: bound must be in (0, 0.25]")
    for m in END_TO_END + PER_LAYER:
        if not re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m.unit):
            raise ValueError(f"{m.name}: bad unit {m.unit!r}")
        if m.better not in ("higher", "lower"):
            raise ValueError(f"{m.name}: better must be higher or lower")


def describe() -> str:
    """Human-readable rendering of the whole table."""
    out = ["WORKLOADS"]
    for w in WORKLOADS:
        sizes = ", ".join(f"{k}={v:g}" for k, v in w.sizes.items())
        out += [f"  {w.name}", f"    op:    {w.op}", f"    loop:  {w.loop}",
                f"    sizes: {sizes}", f"    why:   {w.why}"]
    out.append("END-TO-END METRICS (bound = share of the parent's median)")
    for m in END_TO_END:
        out.append(f"  {m.name:<18} {m.unit:<13} {m.clock:<5} {m.better:<6} "
                   f"bound {m.bound:<5g} {m.why}")
    out.append("PER-LAYER METRICS (0 on a workload that leaves the layer idle)")
    for m in PER_LAYER:
        out.append(f"  {m.name:<40} {m.unit:<9} {m.clock:<5} {m.better:<6} {m.why}"
                   f" | moves: {m.moves}")
    return "\n".join(out)
