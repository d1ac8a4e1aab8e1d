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

N = 512
LOOKUPS = 200
DEAD_FRACTION = 0.30


def fresh_pairs(rng, population, count):
    pairs = []
    pop = list(population)
    while len(pairs) < count:
        o, t = (int(x) for x in rng.choice(pop, 2, replace=False))
        pairs.append((o, t))
    return pairs


def main() -> None:
    rng = np.random.default_rng(123)
    rows = []

    # --- TreeP -----------------------------------------------------------
    treep = TreePNetwork(config=TreePConfig.paper_case1(), seed=1)
    treep.build(N)
    m0 = treep.network.stats.sent
    res = treep.run_lookup_batch(fresh_pairs(rng, treep.ids, LOOKUPS), "G")
    msgs = (treep.network.stats.sent - m0) / LOOKUPS
    victims = [int(v) for v in rng.choice(treep.ids, int(DEAD_FRACTION * N), replace=False)]
    treep.fail_nodes(victims)
    apply_failure_step(treep, victims, PAPER_POLICY)
    res_f = treep.run_lookup_batch(fresh_pairs(rng, treep.alive_ids(), LOOKUPS), "G")
    rows.append(("TreeP (G)", res, res_f, msgs))

    # --- Chord -----------------------------------------------------------
    chord = ChordNetwork(seed=1)
    chord.build(N)
    m0 = chord.network.stats.sent
    res = chord.run_lookup_batch(fresh_pairs(rng, chord.ids, LOOKUPS))
    msgs = (chord.network.stats.sent - m0) / LOOKUPS
    victims = [int(v) for v in rng.choice(chord.ids, int(DEAD_FRACTION * N), replace=False)]
    chord.fail_nodes(victims)
    chord.repair_step()
    res_f = chord.run_lookup_batch(fresh_pairs(rng, chord.alive_ids(), LOOKUPS))
    rows.append(("Chord", res, res_f, msgs))

    # --- Flooding --------------------------------------------------------
    flood = FloodNetwork(seed=1)
    flood.build(N)
    m0 = flood.network.stats.sent
    res = flood.run_lookup_batch(fresh_pairs(rng, flood.ids, LOOKUPS))
    msgs = (flood.network.stats.sent - m0) / LOOKUPS
    victims = [int(v) for v in rng.choice(flood.ids, int(DEAD_FRACTION * N), replace=False)]
    flood.fail_nodes(victims)
    flood.repair_step()
    res_f = flood.run_lookup_batch(fresh_pairs(rng, flood.alive_ids(), LOOKUPS))
    rows.append(("Flooding", res, res_f, msgs))

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
