"""Ablation scenarios — the §VI design-space probes as registry entries.

Each scenario isolates one mechanism, measures it once and renders from
what it measured, with its expectation recorded as
:class:`~repro.bench.scenario.Check` verdicts:

* ``ablation_ids`` — random vs hash vs balanced IDs (§III + §VI): effect
  on tree balance and hop counts;
* ``ablation_demotion`` — strict demotion vs the §VI "keep stable nodes in
  the upper layers" variant under protocol-mode child starvation;
* ``ablation_fallback`` — §III.f's TTL-triggered Euclidean fallback on/off
  at 50% dead;
* ``ablation_maintenance`` — protocol-mode keep-alive period vs control
  traffic, and which healing mechanism buys how much resilience
  (purge-only vs lateral relink vs full adoption) at 30% dead.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.scenario import Check, Metric, Scenario, ScenarioOutput, registry
from repro.bench.sweep import fail_until
from repro.core.config import TreePConfig
from repro.core.lookup import LookupResult
from repro.core.repair import FULL_POLICY, PAPER_POLICY, PURGE_ONLY_POLICY
from repro.core.treep import TreePNetwork
from repro.viz.ascii import table
from repro.workloads.lookups import LookupWorkload


def _greedy_batch(net: TreePNetwork, population: Sequence[int],
                  lookups: int) -> Tuple[float, float]:
    """(success rate, mean hops of the found) of one greedy batch drawn
    from the network's ``"ablation"`` stream."""
    workload = LookupWorkload(rng=net.rng.get("ablation"))
    results: List[LookupResult] = net.run_lookup_batch(
        workload.pairs(population, lookups), "G")
    found = [r for r in results if r.found]
    return (len(found) / len(results),
            float(np.mean([r.hops for r in found])) if found else 0.0)


def _ablation_ids(params, seed, smoke):
    n = params["n"]
    out: Dict[str, Dict[str, float]] = {}
    for strategy in ("random", "hash", "balanced"):
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
        layout = net.build(n, strategy=strategy)  # type: ignore[arg-type]
        cell_sizes = [len(v) for v in layout.children.values()]
        success, hops = _greedy_batch(net, net.ids, params["lookups"])
        out[strategy] = {
            "height": float(layout.height),
            "avg_children": layout.average_children(),
            "cell_size_std": float(np.std(cell_sizes)) if cell_sizes else 0.0,
            "avg_hops": hops,
            "success_rate": success,
        }
    rendered = table(
        ["strategy", "height", "avg children", "cell-size std", "avg hops",
         "success"],
        [[k, v["height"], v["avg_children"], v["cell_size_std"],
          v["avg_hops"], v["success_rate"]] for k, v in out.items()],
        title=f"ID assignment ablation (n={n}, case 1)",
    )
    metrics = {
        "balanced_cell_size_std": out["balanced"]["cell_size_std"],
        "random_cell_size_std": out["random"]["cell_size_std"],
        "hash_height": out["hash"]["height"],
        "random_height": out["random"]["height"],
        "min_success_rate": min(v["success_rate"] for v in out.values()),
    }
    checks = [
        Check("balanced_most_even",
              out["balanced"]["cell_size_std"]
              <= out["random"]["cell_size_std"] + 0.25,
              f"balanced std {out['balanced']['cell_size_std']:.2f} vs "
              f"random {out['random']['cell_size_std']:.2f}"),
        Check("hash_statistically_random",
              abs(out["hash"]["height"] - out["random"]["height"]) <= 1,
              f"hash height {out['hash']['height']:.0f} vs "
              f"random {out['random']['height']:.0f}"),
        Check("all_strategies_route",
              all(v["success_rate"] >= 0.95 for v in out.values()),
              f"min success {metrics['min_success_rate']:.2f} (>= 0.95)"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


def _ablation_demotion(params, seed, smoke):
    """Kills every level-2 parent's children except one, runs the
    maintenance loop, and counts how many parents abdicated per policy."""
    n = params["n"]
    out: Dict[str, Dict[str, float]] = {}
    for policy in ("strict", "keep-upper"):
        cfg = TreePConfig.paper_case1(
            demotion_policy=policy, keepalive_interval=1.0, entry_ttl=3.0,
            demotion_base=2.0,
        )
        net = TreePNetwork(config=cfg, seed=seed)
        layout = net.build(n)
        # Starve parents: kill all but one child of every level-2 parent's
        # children (level-1 nodes keep their own children intact).
        victims: List[int] = []
        for (p, lvl), kids in layout.children.items():
            if lvl == 2 and len(kids) > 1:
                victims.extend(kids[1:])
        for v in victims:
            net.network.set_down(v)
        before = sum(1 for node in net.nodes.values() if node.max_level >= 2)
        net.start_maintenance()
        net.sim.run_for(30.0)
        net.stop_maintenance()
        after = sum(
            1
            for i, node in net.nodes.items()
            if net.network.is_up(i) and node.max_level >= 2
        )
        out[policy] = {
            "upper_nodes_before": float(before),
            "upper_nodes_after": float(after),
            "victims": float(len(victims)),
        }
    rendered = table(
        ["policy", "upper nodes before", "after starvation", "victims"],
        [[k, v["upper_nodes_before"], v["upper_nodes_after"], v["victims"]]
         for k, v in out.items()],
        title=f"Demotion policy ablation (protocol mode, n={n})",
    )
    metrics = {
        "strict_upper_after": out["strict"]["upper_nodes_after"],
        "keep_upper_after": out["keep-upper"]["upper_nodes_after"],
        "victims": out["strict"]["victims"],
    }
    checks = [
        Check("keep_upper_retains_more",
              out["keep-upper"]["upper_nodes_after"]
              >= out["strict"]["upper_nodes_after"],
              f"keep-upper {out['keep-upper']['upper_nodes_after']:.0f} vs "
              f"strict {out['strict']['upper_nodes_after']:.0f}"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


def _ablation_fallback(params, seed, smoke):
    n = params["n"]
    out: Dict[str, Dict[str, float]] = {}
    for enabled in (True, False):
        cfg = TreePConfig.paper_case1(euclidean_fallback=enabled)
        net = TreePNetwork(config=cfg, seed=seed)
        net.build(n)
        surviving = fail_until(net, 0.5)
        success, hops = _greedy_batch(net, surviving, params["lookups"])
        out["fallback-on" if enabled else "fallback-off"] = {
            "success_rate": success, "avg_hops": hops}
    rendered = table(
        ["mode", "success rate", "avg hops"],
        [[k, v["success_rate"], v["avg_hops"]] for k, v in out.items()],
        title=(f"Euclidean-fallback ablation at 50% dead "
               f"(n={n}, case 1)"),
    )
    metrics = {
        "fallback_on_success": out["fallback-on"]["success_rate"],
        "fallback_off_success": out["fallback-off"]["success_rate"],
        "fallback_on_hops": out["fallback-on"]["avg_hops"],
    }
    checks = [
        Check("fallback_never_hurts",
              out["fallback-on"]["success_rate"]
              >= out["fallback-off"]["success_rate"] - 0.05,
              f"on {out['fallback-on']['success_rate']:.2f} vs "
              f"off {out['fallback-off']['success_rate']:.2f} (-0.05 slack)"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


def _ablation_maintenance(params, seed, smoke):
    n_m, horizon = params["n_maintenance"], params["horizon"]
    cost: Dict[float, Dict[str, float]] = {}
    for interval in (2.0, 5.0, 10.0, 20.0):
        cfg = TreePConfig.paper_case1(
            keepalive_interval=interval, entry_ttl=interval * 4
        )
        net = TreePNetwork(config=cfg, seed=seed)
        net.build(n_m)
        net.network.reset_stats()
        net.start_maintenance()
        net.sim.run_for(horizon)
        net.stop_maintenance()
        stats = net.network.stats
        cost[interval] = {
            "messages_per_node_per_s": stats.sent / n_m / horizon,
            "bytes_per_node_per_s": stats.bytes_sent / n_m / horizon,
        }
    repair: Dict[str, Dict[str, float]] = {}
    for name, policy in (("purge-only", PURGE_ONLY_POLICY),
                         ("lateral (paper)", PAPER_POLICY),
                         ("full adoption", FULL_POLICY)):
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
        net.build(params["n_repair"])
        surviving = fail_until(net, 0.3, policy)
        success, hops = _greedy_batch(net, surviving, params["lookups"])
        repair[name] = {"success_rate": success, "avg_hops": hops}
    rendered = "\n\n".join([
        table(
            ["keepalive interval (s)", "msgs/node/s", "bytes/node/s"],
            [[k, v["messages_per_node_per_s"], v["bytes_per_node_per_s"]]
             for k, v in sorted(cost.items())],
            title=(f"Maintenance overhead vs keep-alive interval "
                   f"(protocol mode, n={params['n_maintenance']})"),
        ),
        table(
            ["policy", "success rate @30% dead", "avg hops"],
            [[k, v["success_rate"], v["avg_hops"]] for k, v in repair.items()],
            title=(f"Repair-mechanism ablation at 30% dead "
                   f"(n={params['n_repair']}, case 1)"),
        ),
    ])
    costs = [cost[i]["messages_per_node_per_s"] for i in sorted(cost)]
    metrics = {
        "msgs_per_node_s_fastest_keepalive": costs[0],
        "msgs_per_node_s_slowest_keepalive": costs[-1],
        "purge_only_success": repair["purge-only"]["success_rate"],
        "full_adoption_success": repair["full adoption"]["success_rate"],
    }
    checks = [
        Check("cost_monotone_in_interval", costs == sorted(costs, reverse=True),
              f"msgs/node/s by interval: {[round(c, 3) for c in costs]}"),
        Check("low_overhead_claim", costs[0] < 10.0,
              f"2s keep-alive costs {costs[0]:.2f} msgs/node/s (< 10)"),
        Check("adoption_at_least_purge_only",
              repair["purge-only"]["success_rate"]
              <= repair["full adoption"]["success_rate"] + 0.05,
              f"purge-only {repair['purge-only']['success_rate']:.2f} vs "
              f"full adoption {repair['full adoption']['success_rate']:.2f}"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


registry.register(Scenario(
    name="ablation_ids", group="ablations",
    description="ID assignment strategy: random vs hash vs balanced (§III, §VI)",
    runner=_ablation_ids,
    params={"n": 512, "lookups": 200},
    smoke_params={"n": 192, "lookups": 80},
    metrics=(
        Metric("balanced_cell_size_std", "nodes", "lower",
               "cell-size spread under balanced IDs"),
        Metric("random_cell_size_std", "nodes", "neutral"),
        Metric("hash_height", "levels", "neutral"),
        Metric("random_height", "levels", "neutral"),
        Metric("min_success_rate", "fraction", "higher",
               "worst lookup success across strategies"),
    )))

registry.register(Scenario(
    name="ablation_demotion", group="ablations",
    description="demotion policy: strict vs §VI keep-upper under child starvation",
    runner=_ablation_demotion,
    params={"n": 256},
    smoke_params={"n": 128},
    metrics=(
        Metric("strict_upper_after", "nodes", "neutral"),
        Metric("keep_upper_after", "nodes", "higher",
               "upper-layer nodes surviving starvation (keep-upper)"),
        Metric("victims", "nodes", "neutral"),
    )))

registry.register(Scenario(
    name="ablation_fallback", group="ablations",
    description="§III.f TTL-triggered Euclidean fallback on/off at 50% dead",
    runner=_ablation_fallback,
    params={"n": 512, "lookups": 200},
    smoke_params={"n": 192, "lookups": 80},
    metrics=(
        Metric("fallback_on_success", "fraction", "higher"),
        Metric("fallback_off_success", "fraction", "neutral"),
        Metric("fallback_on_hops", "hops", "lower"),
    )))

registry.register(Scenario(
    name="ablation_maintenance", group="ablations",
    description=("maintenance cost per keep-alive interval + resilience "
                 "value of each repair mechanism (§III.d)"),
    runner=_ablation_maintenance,
    params={"n_maintenance": 128, "horizon": 60.0, "n_repair": 512,
            "lookups": 150},
    smoke_params={"n_maintenance": 64, "horizon": 30.0, "n_repair": 192,
                  "lookups": 80},
    metrics=(
        Metric("msgs_per_node_s_fastest_keepalive", "msgs/node/s", "lower",
               "control traffic at the 2s keep-alive"),
        Metric("msgs_per_node_s_slowest_keepalive", "msgs/node/s", "lower"),
        Metric("purge_only_success", "fraction", "neutral"),
        Metric("full_adoption_success", "fraction", "higher"),
    )))
