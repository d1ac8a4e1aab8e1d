#!/usr/bin/env python3
"""Churn resilience: the paper's §IV stress test, end to end.

Builds the case-1 network, then repeatedly disconnects 5% of the initial
population (no repopulation — the paper's harshest setting), letting the
maintenance fixed point heal laterally between bursts, and reports the
failure rate and hop statistics per step — i.e. Figures A/B as one script.

Run:  python examples/churn_resilience.py
"""

import numpy as np

from repro import TreePConfig, TreePNetwork
from repro.core.repair import PAPER_POLICY, apply_failure_step
from repro.sim.failures import FailureSchedule
from repro.workloads import LookupWorkload


def main() -> None:
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=99)
    layout = net.build(n=1024)
    print(f"built n=1024, height={layout.height}")
    print(f"{'dead%':>6} {'alive':>6} {'G fail%':>8} {'NG fail%':>9} "
          f"{'G hops':>7} {'NG hops':>8}")

    rng = net.rng.get("example")
    schedule = FailureSchedule(net.ids, rng)
    workload = LookupWorkload(rng=net.rng.get("example-lookups"))

    for step in schedule.steps():
        net.fail_nodes(step.newly_failed)
        apply_failure_step(net, step.newly_failed, PAPER_POLICY)
        if len(step.surviving) < 10:
            break
        row = [f"{100 * step.cumulative_failed_fraction:6.0f}",
               f"{len(step.surviving):6d}"]
        hops_cells = []
        for algo in ("G", "NG"):
            results = net.run_lookup_batch(
                workload.pairs(step.surviving, 150), algo
            )
            found = [r for r in results if r.found]
            fail_pct = 100 * (1 - len(found) / len(results))
            row.append(f"{fail_pct:8.1f}" if algo == "G" else f"{fail_pct:9.1f}")
            hops = np.mean([r.hops for r in found]) if found else float("nan")
            hops_cells.append(f"{hops:7.2f}" if algo == "G" else f"{hops:8.2f}")
        print(" ".join(row + hops_cells))

    print("\nExpected shape (paper §IV.a): failures ~10% around 30% dead,")
    print("~25-30% around 50% dead; average hops roughly flat until ~70%.")


if __name__ == "__main__":
    main()
