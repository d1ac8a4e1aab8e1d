"""Named capacity mixes for experiment populations.

The paper's variable-``nc`` case keys everything on node heterogeneity;
this preset gives experiments a reproducible, recognisable mix (the
default heterogeneous population is :class:`CapacityDistribution` itself).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.capacity import CapacityDistribution, NodeCapacity


def grid_cluster_mix(
    n: int,
    rng: np.random.Generator,
    server_fraction: float = 0.1,
) -> List[NodeCapacity]:
    """A DGET-style grid: a stable server core plus desktop edge nodes.

    Servers: many cores, fat pipes, long uptime, low load.  Desktops: the
    measured-P2P shape.  The bimodality is what makes capacity-aware
    promotion visibly useful — servers should dominate the upper layers.
    """
    if not 0.0 <= server_fraction <= 1.0:
        raise ValueError(f"server_fraction must be in [0,1], got {server_fraction}")
    n_servers = int(round(server_fraction * n))
    out: List[NodeCapacity] = []
    for _ in range(n_servers):
        out.append(
            NodeCapacity(
                cpu=float(rng.choice([16, 32, 64])),
                memory_gb=float(rng.choice([64, 128, 256])),
                bandwidth_mbps=float(rng.uniform(500, 2000)),
                storage_gb=float(rng.uniform(1000, 10000)),
                uptime_hours=float(rng.uniform(500, 5000)),
                cpu_load=float(rng.beta(1.5, 8)),
                net_load=float(rng.beta(1.5, 8)),
            )
        )
    dist = CapacityDistribution(rng)
    out.extend(dist.sample() for _ in range(n - n_servers))
    perm = rng.permutation(len(out))
    return [out[int(i)] for i in perm]
