"""The failure-sweep model behind every figure, and the §IV failure
protocol as a helper for scenarios that only need one operating point.

Protocol (§IV): the TreeP network is built and taken to steady state; nodes
are then randomly disconnected at a rate of 5% of the initial topology per
step, with no repopulation, "until the number of the remaining nodes reaches
a threshold of 5% of the initial topology".  After each step the surviving
nodes run one maintenance window (see :mod:`repro.core.repair`) and a batch
of random lookups per routing algorithm is measured.

Both experimental cases are supported:

* **case 1** — ``nc = 4`` fixed (paper §IV.a, ``h = 6`` at n ≈ 1024);
* **case 2** — ``nc`` derived from node capacity (paper §IV.b).
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Literal, Sequence, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.core.config import TreePConfig
from repro.core.messages import LookupRequest
from repro.core.node import TreePNode
from repro.core.repair import PAPER_POLICY, RepairPolicy, apply_failure_step
from repro.core.treep import TreePNetwork
from repro.metrics.series import Series
from repro.metrics.stats import LookupBatchStats, summarize_batch
from repro.sim.failures import FailureSchedule
from repro.workloads.lookups import LookupWorkload

Case = Literal["case1", "case2"]

#: The three algorithms of §IV, in the paper's order.
ALGORITHMS: Tuple[str, ...] = ("G", "NG", "NGSA")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep = one network + one failure schedule + per-step batches.

    What every sweep shares is fixed, not configured: the §IV schedule
    (5 % of the initial population per step until 5 % survives),
    :data:`~repro.core.repair.PAPER_POLICY` healing after each step, and
    a batch per algorithm in :data:`ALGORITHMS`.
    """

    n: int = 1024
    seed: int = 42
    case: Case = "case1"
    lookups_per_step: int = 200

    def treep_config(self) -> TreePConfig:
        if self.case == "case1":
            return TreePConfig.paper_case1()
        return TreePConfig.paper_case2()


@dataclass
class StepRecord:
    """Measurements at one failure level."""

    failed_fraction: float
    surviving: int
    per_algo: Dict[str, LookupBatchStats]


@dataclass
class SweepResult:
    """The full sweep: per-step, per-algorithm batch statistics."""

    config: SweepConfig
    height: int
    records: List[StepRecord] = field(default_factory=list)

    # ------------------------------------------------------- series views
    def failure_series(self, algo: str) -> Series:
        """% failed lookups vs % failed nodes (Figures A / C)."""
        s = Series(label=f"{algo} failed lookups %")
        for r in self.records:
            s.add(100.0 * r.failed_fraction, 100.0 * r.per_algo[algo].failure_rate)
        return s

    def hops_series(self, algo: str) -> Series:
        """Average hops of successful lookups vs % failed nodes (B / D)."""
        s = Series(label=f"{algo} avg hops")
        for r in self.records:
            s.add(100.0 * r.failed_fraction, r.per_algo[algo].hops_mean)
        return s

    def failed_hops_series(self, algo: str) -> Tuple[Series, Series]:
        """(max, min) hops travelled by *failed* lookups (Figure E)."""
        smax = Series(label=f"{algo} max failed hops")
        smin = Series(label=f"{algo} min failed hops")
        for r in self.records:
            st = r.per_algo[algo]
            smax.add(100.0 * r.failed_fraction, st.failed_hops_max)
            smin.add(100.0 * r.failed_fraction, st.failed_hops_min)
        return smax, smin

    def surface(self, algo: str, max_hops: int = 30) -> "HopSurface":
        """The 3-D data of Figures F-I for one algorithm."""
        fracs = [100.0 * r.failed_fraction for r in self.records]
        width = max_hops + 1
        rows = []
        for r in self.records:
            row = list(r.per_algo[algo].hops_percent[:width])
            rows.append(row + [0.0] * (width - len(row)))
        return HopSurface(algo=algo, failed_percent=fracs, percent_rows=rows)


@dataclass
class HopSurface:
    """% of requests (z) resolved in y hops at x% failed nodes."""

    algo: str
    failed_percent: List[float]
    percent_rows: List[List[float]]  # indexed [step][hops]

    def as_array(self) -> np.ndarray:
        return np.array(self.percent_rows)

    def peak(self) -> Tuple[int, float]:
        """(hop count, %) of the tallest ridge across the whole surface."""
        arr = self.as_array()
        if arr.size == 0:
            return (0, 0.0)
        step, hops = np.unravel_index(int(np.argmax(arr)), arr.shape)
        return int(hops), float(arr[step, hops])

    def ridge_hops(self) -> List[int]:
        """Per-step modal hop count — flatness of this list is Figure B's
        'the number of hops is constant' claim in surface form."""
        return [int(np.argmax(np.array(row))) for row in self.percent_rows]


def fail_until(
    net: TreePNetwork, dead_fraction: float, policy: RepairPolicy = PAPER_POLICY
) -> Sequence[int]:
    """Take *net* to one operating point of the §IV protocol: crash 5% of
    the initial population per step (the ``"sweep"`` stream picks the
    victims, no repopulation), healing under *policy* after each step,
    until at least *dead_fraction* is dead.  Returns the survivors."""
    surviving: Sequence[int] = tuple(net.ids)
    if dead_fraction > 0:
        schedule = FailureSchedule(net.ids, net.rng.get("sweep"))
        for step in schedule.steps():
            net.fail_nodes(step.newly_failed)
            apply_failure_step(net, step.newly_failed, policy)
            surviving = step.surviving
            if step.cumulative_failed_fraction >= dead_fraction:
                break
    return surviving


def _observe_hop(max_ttl: Dict[int, int], handle: Callable[..., None],
                 node: TreePNode, src: int, req: LookupRequest) -> None:
    """Note how far *req* got, then hand it to the overlay's handler."""
    if req.ttl > max_ttl.get(req.request_id, 0):
        max_ttl[req.request_id] = req.ttl
    handle(node, src, req)


@contextmanager
def observed_hops(net: TreePNetwork) -> Iterator[Dict[int, int]]:
    """Yield a map, filled for the length of the block, of the furthest
    hop (``ttl``) each lookup request reached: the handler table's
    ``LookupRequest`` entry is wrapped, and restored on the way out."""
    table = net.network.handlers
    entry = receivers, handle = table[LookupRequest]
    max_ttl: Dict[int, int] = {}
    table[LookupRequest] = (receivers, functools.partial(_observe_hop, max_ttl, handle))
    try:
        yield max_ttl
    finally:
        table[LookupRequest] = entry


@functools.lru_cache(maxsize=None)
def run_failure_sweep(config: SweepConfig) -> SweepResult:
    """Execute one full sweep (the engine behind Figures A-I).

    Memoised per process: nine figure scenarios derive from two sweeps
    (case 1 and case 2), and the key is the whole frozen
    :class:`SweepConfig`, so any parameter change re-runs honestly.
    Callers share the returned object and must treat it as read-only.
    """
    cluster = Cluster(config=config.treep_config(), seed=config.seed).build(config.n)
    net = cluster.net
    layout = cluster.layout
    result = SweepResult(config=config, height=layout.height)

    rng = net.rng.get("sweep")
    schedule = FailureSchedule(net.ids, rng)
    workload = LookupWorkload(rng=net.rng.get("workload"))

    # Figure E needs the hops travelled by lookups that died by
    # black-holing into a failed node: no reply ever reports them, so
    # the sweep watches every hop.
    with observed_hops(net) as max_ttl:
        for step in schedule.steps():
            net.fail_nodes(step.newly_failed)
            apply_failure_step(net, step.newly_failed, PAPER_POLICY)
            if len(step.surviving) < 2:
                break
            per_algo: Dict[str, LookupBatchStats] = {}
            for algo in ALGORITHMS:
                pairs = workload.pairs(step.surviving, config.lookups_per_step)
                results = net.run_lookup_batch(pairs, algo)
                per_algo[algo] = summarize_batch(results, failed_hop_counts=[
                    max_ttl.get(r.request_id, 0) if r.timed_out else r.hops
                    for r in results if not r.found])
                max_ttl.clear()
            result.records.append(StepRecord(
                step.cumulative_failed_fraction, len(step.surviving), per_algo))
    return result
