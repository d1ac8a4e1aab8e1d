#!/usr/bin/env python3
"""Grid job execution on TreeP: checkpointed re-execution surviving churn.

Builds a 128-node overlay, starts the replicated store (N=3, W=2, R=2) the
workers checkpoint into, and submits a mixed grid workload — Poisson job
arrivals with heterogeneous CPU demands plus a layered DAG batch — through
the message-level scheduler.  While the jobs run, 30% of the population is
killed in bursts; between bursts the overlay heals its tables, anti-entropy
re-replicates, and the scheduler fails over if its own host died.  Workers
killed mid-job are detected by missed heartbeats, re-placed through the
resource-discovery aggregates, and *resume from their last checkpoint*
instead of restarting — so every submitted job still completes.

Run:  python examples/grid_jobs.py
"""

from repro import Cluster, ComputeConfig, QuorumConfig, TreePConfig
from repro.workloads import JobWorkload


def main() -> None:
    cluster = (Cluster(config=TreePConfig.paper_case1(), seed=42)
               .build(n=128)
               .with_storage(QuorumConfig(n=3, w=2, r=2), anti_entropy=10.0)
               .with_compute(ComputeConfig(checkpoint_interval=8.0)))
    net, grid, ae = cluster.net, cluster.compute, cluster.anti_entropy

    wl = JobWorkload(rng=net.rng.get("example-jobs"), arrival_rate=1.0,
                     work_mean=120.0, constrained_fraction=0.25)
    specs = wl.jobs(30) + wl.dag_batch((4, 3, 1), work=50.0)
    grid.schedule_submissions(specs)
    print(f"submitted {len(specs)} jobs "
          f"(30 stream + {len(specs) - 30} DAG) to a {len(net.ids)}-node grid")

    rng = net.rng.get("example-churn")
    order = [int(v) for v in rng.permutation(net.ids)]
    total, burst = int(0.30 * len(net.ids)), max(1, len(net.ids) // 16)
    print(f"\n{'t':>5} {'dead%':>6} {'done':>7} {'re-exec':>8} "
          f"{'stolen':>7} {'failover':>9}")
    killed = 0
    while killed < total:
        net.sim.run_for(15.0)
        step = order[killed:killed + min(burst, total - killed)]
        killed += len(step)
        cluster.fail_nodes(step, heal=True)    # churn callbacks + healing
        ae.converge()                          # re-replication
        failed_over = grid.ensure_scheduler()  # scheduler failover
        # (no manual directory refresh: the discovery service watched the
        # leave callbacks and resyncs its aggregates on the next query)
        s = grid.stats()
        print(f"{net.sim.now:5.0f} {100 * killed / len(net.ids):6.0f} "
              f"{s.completed:3d}/{s.submitted:<3d} {s.reexecutions:8d} "
              f"{s.steals:7d} {'yes' if failed_over else '':>9}")

    done = grid.run_until_done(timeout=2000.0)
    s = grid.stats()
    print(f"\nall jobs terminal: {done}")
    for name, value in s.summary_rows():
        print(f"  {name:<24} {value}")
    print("\nEvery job completes despite 30% of the grid dying mid-run:")
    print("missed heartbeats trigger re-placement, and the quorum-stored")
    print("checkpoints mean re-executions resume rather than restart —")
    print(f"only {s.wasted_work:.0f}s of {s.executed_work:.0f}s executed "
          f"was wasted (goodput {s.goodput:.3f}).")
    cluster.shutdown()


if __name__ == "__main__":
    main()
