#!/usr/bin/env python3
"""TreeP vs Chord vs Gnutella-style flooding on identical workloads.

The quantitative version of the paper's §I/§II positioning:

* flooding resolves everything nearby but costs hundreds of messages per
  lookup (the "blind flood … does not scale well" critique);
* Chord is log-n cheap but its rigid ring needs stabilisation to survive
  failures;
* TreeP matches the log-n hop count with a handful of maintained links and
  heals laterally through its replicated neighbour knowledge.

Run:  python examples/baseline_comparison.py
"""

import numpy as np

from repro import TreePConfig, TreePNetwork
from repro.baselines import ChordNetwork, FloodNetwork
from repro.core.repair import PAPER_POLICY, apply_failure_step
from repro.workloads.lookups import lookup_pairs

N = 512
LOOKUPS = 200
DEAD_FRACTION = 0.30


def main() -> None:
    rng = np.random.default_rng(123)
    treep = TreePNetwork(config=TreePConfig.paper_case1(), seed=1)
    chord, flood = ChordNetwork(seed=1), FloodNetwork(seed=1)
    rows = []
    # Each overlay: build, a healthy batch, crash 30% of it, let it heal
    # its own way, and a second batch among the survivors.
    for name, net, heal in (
        ("TreeP (G)", treep,
         lambda victims: apply_failure_step(treep, victims, PAPER_POLICY)),
        ("Chord", chord, lambda victims: chord.repair_step()),
        ("Flooding", flood, lambda victims: flood.repair_step()),
    ):
        net.build(N)
        m0 = net.network.stats.sent
        res = net.run_lookup_batch(lookup_pairs(rng, net.ids, LOOKUPS))
        msgs = (net.network.stats.sent - m0) / LOOKUPS
        victims = [int(v) for v in rng.choice(net.ids, int(DEAD_FRACTION * N), replace=False)]
        net.fail_nodes(victims)
        heal(victims)
        res_f = net.run_lookup_batch(lookup_pairs(rng, net.alive_ids(), LOOKUPS))
        rows.append((name, res, res_f, msgs))

    # --- report ----------------------------------------------------------
    print(f"{'overlay':<12} {'success%':>9} {'hops':>6} {'msgs/lookup':>12} "
          f"{'success%@30%dead':>17}")
    for name, healthy, failed, msgs in rows:
        ok = [r for r in healthy if r.found]
        okf = [r for r in failed if r.found]
        print(f"{name:<12} {100 * len(ok) / len(healthy):9.1f} "
              f"{np.mean([r.hops for r in ok]):6.2f} {msgs:12.1f} "
              f"{100 * len(okf) / len(failed):17.1f}")
    print("\nExpected: flooding pays 2 orders of magnitude more messages;")
    print("TreeP and Chord both route in O(log n); TreeP keeps fewer")
    print("actively-maintained connections per node (paper §III.e).")


if __name__ == "__main__":
    main()
