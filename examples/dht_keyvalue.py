#!/usr/bin/env python3
"""DHT on TreeP: the "easily modified to provide DHT functionality" claim.

Stores a few hundred key/value pairs on the overlay, kills a third of the
network, heals, and shows that replication on the peers closest to each
key keeps most values retrievable — the overlay's own maintenance doubles
as the DHT's.  An anti-entropy pass then refills the copies the crashes
took, onto the surviving peers closest to each key.

The DHT is the replicated store at its simplest setting: k copies on the
k peers closest to the key, one ack completes a write, the first answer
completes a read (``QuorumConfig(n=k, w=1, r=1)``).  ``replicated_store.py``
turns the same dials up to quorums.

Run:  python examples/dht_keyvalue.py
"""

from collections import Counter

import numpy as np

from repro import Cluster, QuorumConfig, TreePConfig


def main() -> None:
    cluster = (Cluster(config=TreePConfig.paper_case1(), seed=11)
               .build(n=256)
               .with_storage(QuorumConfig(n=3, w=1, r=1), anti_entropy=30.0))
    net, dht = cluster.net, cluster.storage

    # Store 200 job records.
    keys = [f"job/{i:04d}" for i in range(200)]
    for i, key in enumerate(keys):
        result = dht.put(key, {"job": i, "state": "queued"})
        assert result.ok, f"put failed for {key}"
    per_node = Counter(
        node for holders in dht.replica_map().values() for node in holders)
    print(f"stored 200 keys x3 replicas on {len(per_node)} nodes "
          f"(mean {np.mean(list(per_node.values())):.1f} keys/node, "
          f"max {max(per_node.values())})")

    # Read everything back.
    hits = sum(dht.get(k).found for k in keys)
    print(f"before failures: {hits}/200 GETs hit")

    # Kill a third of the network, heal, read again.
    rng = np.random.default_rng(5)
    victims = [int(v) for v in rng.choice(net.ids, len(net.ids) // 3, replace=False)]
    cluster.fail_nodes(victims, heal=True)

    alive = net.alive_ids()
    hits = 0
    for i, k in enumerate(keys):
        # (index, not builtin hash(k): str hashes are salted per process,
        # which broke the example's run-to-run determinism)
        if dht.get(k, via=alive[i % len(alive)]).found:
            hits += 1
    print(f"after 33% of nodes crashed: {hits}/200 GETs still hit "
          f"(3-way replication on the closest peers)")

    # Re-replicate: every surviving key back onto its ideal live holders
    # (the live peers closest to it).
    passes = cluster.anti_entropy.converge()
    first = cluster.anti_entropy.reports[0]
    print(f"anti-entropy: {first.repairs_sent} copies re-placed for "
          f"{first.keys} surviving keys, clean after {passes} passes")

if __name__ == "__main__":
    main()
