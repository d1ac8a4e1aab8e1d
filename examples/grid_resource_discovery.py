#!/usr/bin/env python3
"""Grid resource discovery + load balancing — the DGET use case (§I).

Builds a TreeP overlay over a DGET-style population (10% beefy servers,
90% desktops), then:

1. answers capability-constrained queries by walking the hierarchy's
   capacity aggregates (pruning subtrees that can't match), and
2. runs a burst of compute jobs through the grid scheduler, whose
   placement is the load balancing: each job goes to the admitted
   candidate with the most free CPU the same aggregate walk finds, and
   idle siblings steal from saturated queues.

The point of the demo: the capacity-aware promotion puts the servers in
the upper layers, so discovery and placement both find them in O(log n)
steps, and the heavy jobs land on them.

Run:  python examples/grid_resource_discovery.py
"""

import numpy as np

from repro import Cluster, JobSpec, TreePConfig
from repro.services.discovery import Constraint
from repro.workloads import grid_cluster_mix


def main() -> None:
    rng = np.random.default_rng(77)
    caps = grid_cluster_mix(512, rng, server_fraction=0.1)
    cluster = (Cluster(config=TreePConfig.paper_case2(), seed=77)
               .build(n=512, capacities=caps)
               .with_compute())
    net, layout = cluster.net, cluster.layout
    print(f"built 512-peer grid, height={layout.height} (variable nc)")

    # Where did the servers end up?  Count >=16-core nodes per level.
    for lvl in range(layout.height, 0, -1):
        bus = layout.levels[lvl]
        beefy = sum(1 for i in bus if net.capacities[i].cpu >= 16)
        print(f"  level {lvl}: {beefy}/{len(bus)} nodes with >= 16 cores")

    directory = cluster.directory
    queries = [
        Constraint(min_cpu=16, min_memory_gb=64),
        Constraint(min_cpu=4, min_bandwidth_mbps=100),
        Constraint(min_cpu=32, min_memory_gb=128, min_bandwidth_mbps=500),
    ]
    for c in queries:
        res = directory.query(c, max_results=4)
        print(f"query cpu>={c.min_cpu} mem>={c.min_memory_gb} bw>={c.min_bandwidth_mbps}: "
              f"{len(res.matches)} matches in {res.hops} hops "
              f"({res.subtrees_pruned} subtrees pruned)")
        for m in res.matches:
            cap = net.capacities[m]
            assert cap.cpu >= c.min_cpu and cap.memory_gb >= c.min_memory_gb

    # Job placement.
    grid = cluster.compute
    for i in range(400):
        grid.submit(JobSpec(job_id=i, cpu_demand=float(rng.choice([0.5, 1.0, 2.0])),
                            work=10.0))
    grid.run_until_done(timeout=600.0)
    stats = grid.stats()
    print(f"\ncompleted {stats.completed}/{stats.submitted} jobs, "
          f"mean {stats.mean_placement_hops:.2f} hops to placement")
    assert stats.completed == stats.submitted == 400, "jobs left unfinished"
    # The heavy lifting should land on the strong nodes.
    heavy = [r.worker for r in grid.results.values()
             if grid.expected[r.job_id].cpu_demand >= 2.0]
    print(f"heavy jobs ran on nodes with mean "
          f"{np.mean([net.capacities[n].cpu for n in heavy]):.1f} cores "
          f"(population mean {np.mean([c.cpu for c in caps]):.1f})")
    cluster.shutdown()


if __name__ == "__main__":
    main()
