#!/usr/bin/env python3
"""Quickstart: build a TreeP overlay, inspect it, and resolve some IDs.

Covers the core public API in ~40 lines of action:

1. configure the overlay (the paper's case 1: fixed ``nc = 4``),
2. build a steady-state network of heterogeneous peers,
3. look at the hierarchy the capacity-aware promotion produced,
4. run lookups with each of the three routing algorithms (G / NG / NGSA).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Cluster, LookupAlgorithm, TreePConfig


def main() -> None:
    # 1. Configure: paper case 1 — every parent holds at most 4 children.
    config = TreePConfig.paper_case1()

    # 2. Build 512 peers with the default heterogeneous capacity mix.
    #    `Cluster` is the unified entry point; services (storage, compute,
    #    …) would chain on with `.with_storage(...)` etc. — here we
    #    only need the raw overlay underneath (`cluster.net`).
    cluster = Cluster(config=config, seed=2005).build(n=512)
    net, layout = cluster.net, cluster.layout

    # 3. Inspect the hierarchy.
    print(f"height h = {layout.height} "
          f"(paper formula log_c((n+1)/2) with c = {layout.average_children():.2f})")
    for lvl, bus in enumerate(layout.levels):
        print(f"  level {lvl}: {len(bus):4d} nodes")
    sizes = list(net.routing_table_sizes().values())
    print(f"routing tables: mean {np.mean(sizes):.1f} entries, max {max(sizes)}")
    conns = list(net.active_connection_counts().values())
    print(f"active connections: mean {np.mean(conns):.1f}, max {max(conns)}")

    # Capacity-aware promotion: upper layers should be the strong peers.
    top = layout.levels[layout.height]
    top_scores = [net.capacities[i].score() for i in top]
    all_scores = [c.score() for c in net.capacities.values()]
    print(f"top-level capacity score {np.mean(top_scores):.2f} "
          f"vs population mean {np.mean(all_scores):.2f}")

    # 4. Resolve 50 random IDs with each algorithm.
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < 50:
        o, t = (int(x) for x in rng.choice(net.ids, 2, replace=False))
        pairs.append((o, t))
    for algo in LookupAlgorithm:
        results = net.run_lookup_batch(pairs, algo)
        found = [r for r in results if r.found]
        print(f"{algo.value:>4}: {len(found)}/{len(results)} resolved, "
              f"avg {np.mean([r.hops for r in found]):.2f} hops "
              f"(log2 n = {np.log2(len(net.ids)):.1f})")


if __name__ == "__main__":
    main()
