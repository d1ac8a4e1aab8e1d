"""The five workloads: input generation, driver code and correctness oracles.

Each workload is a small class naming its input ``stream`` (the obs-on/
obs-off pair shares one) with the same five steps, called in order by
:func:`perf_round.run_round`:

``generate(rng, sizes)``  inputs as numpy arrays, before any clock starts
``setup(r)``              build the overlay, attach services, seed data
``warmup(r)``             fill caches; counted into ``setup_s``
``measure(r)``            the measured phase, split into timed segments
``finish(r)``             post-phase work timed on its own, counters, teardown

The program under test is driven only through its public functions and
read only through its public counters.  ``repro`` is imported inside the
methods, never at module scope: a round times ``import repro`` itself.
Timed regions hold nothing but the call into the program and two clock
reads; tallies and oracles run between segments.
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

from perf_registry import SCENARIO_SEED, WORKLOAD_INDEX

QUORUM = (3, 2, 2)
ANTI_ENTROPY_INTERVAL = 10.0
CHECKPOINT_INTERVAL = 8.0
ZIPF_S = 1.1
PUT_SHARE = 0.30
CONSTRAINED_SHARE = 0.25
WORK_SIGMA = 0.5
WORK_CAP = 3.0
DEMAND_CLASSES = (0.5, 1.0, 2.0)
DEMAND_WEIGHTS = (0.5, 0.35, 0.15)


def _scenario_rng(stream: str):
    """Randomness of the fixed scenario (crash order, hot keys), as opposed
    to the ``--seed``-drawn requests."""
    return np.random.default_rng([SCENARIO_SEED, WORKLOAD_INDEX[stream]])


def _distinct_pairs(rng, population: int, count: int):
    """*count* (origin, target) index pairs with origin != target."""
    origin = rng.integers(0, population, size=count)
    target = rng.integers(0, population - 1, size=count)
    target = target + (target >= origin)
    return origin, target


def _as_pairs(ids: np.ndarray, origin, target) -> List[tuple]:
    return list(zip(ids[origin].tolist(), ids[target].tolist()))


class LookupTally:
    """Outcome counters of the lookups a round issued, plus the oracle that
    every request got exactly one result, for the target it asked for."""

    def __init__(self) -> None:
        self.issued = self.found = self.timed_out = self.hops = 0
        self.mismatched = 0

    def add(self, pairs, results) -> None:
        self.issued += len(pairs)
        if len(results) != len(pairs):
            self.mismatched += abs(len(results) - len(pairs))
        for (origin, target), res in zip(pairs, results):
            if res.origin != origin or res.target != target:
                self.mismatched += 1
            if res.found:
                self.found += 1
                self.hops += res.hops
            if res.timed_out:
                self.timed_out += 1

    def report(self, r) -> None:
        floor = r.sizes["success_floor"]
        rate = self.found / self.issued if self.issued else 0.0
        r.check("lookup.one_result_per_request", self.mismatched == 0,
                f"{self.mismatched} results missing or for another request")
        r.check("lookup.success_floor", rate >= floor,
                f"{self.found}/{self.issued} found ({rate:.4f}, floor {floor})")
        r.count("core.lookup.lookups", self.issued)
        r.count("core.lookup.not_found", self.issued - self.found)
        r.count("core.lookup.timed_out", self.timed_out)
        r.count("core.lookup.mean_hops", self.hops / self.found if self.found else 0.0)


class LookupSteady:
    """Greedy lookups on a static overlay (``observed`` adds the obs hub)."""

    stream = "lookup_steady"      # the obs-on/obs-off pair shares its inputs
    observed = False

    def generate(self, rng, sizes) -> Dict[str, np.ndarray]:
        total = int(sizes["warmup_ops"] + sizes["segments"] * sizes["segment_ops"])
        origin, target = _distinct_pairs(rng, int(sizes["nodes"]), total)
        return {"origin": origin, "target": target}

    def setup(self, r) -> None:
        from repro import Cluster, TreePConfig

        with r.call("cluster.build", "core.treep.build_s"):
            self.cluster = Cluster(config=TreePConfig.paper_case1(),
                                   seed=SCENARIO_SEED).build(int(r.sizes["nodes"]))
        if self.observed:
            with r.call("cluster.with_observability", "cluster.attach_s"):
                self.cluster.with_observability()
        r.net = self.cluster.net
        with r.generating():
            ids = np.asarray(r.net.ids)
            pairs = _as_pairs(ids, r.inputs["origin"], r.inputs["target"])
            warm = int(r.sizes["warmup_ops"])
            step = int(r.sizes["segment_ops"])
            self.warm_pairs = pairs[:warm]
            self.segments = [pairs[i:i + step] for i in range(warm, len(pairs), step)]

    def warmup(self, r) -> None:
        with r.call("core.treep.run_lookup_batch"):
            r.net.run_lookup_batch(self.warm_pairs, "G")

    def measure(self, r) -> None:
        tally = self.tally = LookupTally()
        run_batch = r.net.run_lookup_batch
        for pairs in self.segments:
            with r.segment(len(pairs)):
                with r.call("core.treep.run_lookup_batch", "core.treep.lookup_batch_s"):
                    results = run_batch(pairs, "G")
            tally.add(pairs, results)
        r.ops(tally.issued, tally.found, tally.hops, tally.found)

    def finish(self, r) -> None:
        self.tally.report(r)
        if self.observed:
            self._finish_observed(r)
        with r.call("cluster.shutdown", "cluster.shutdown_s"):
            self.cluster.shutdown()

    def _finish_observed(self, r) -> None:
        hub = self.cluster.obs
        path = os.path.join(r.scratch, "obs_store.npz")
        with r.call("obs.service.write", "obs.store.write_s"):
            written = self.cluster.observability.write(path)
        r.host["obs.store.bytes"] = float(os.path.getsize(written))
        os.remove(written)
        r.count("obs.hub.spans", len(hub.spans))
        r.count("obs.hub.events", len(hub.events))
        issued = len(self.warm_pairs) + self.tally.issued
        recorded = hub.category_counts().get("lookup", 0)
        r.check("obs.lookup_spans_match_issued", recorded == issued,
                f"hub recorded {recorded} lookup rows for {issued} lookups issued")


class LookupObserved(LookupSteady):
    observed = True


class ChurnRepair:
    """The paper's section-IV stress test: crash bursts, repair, probe."""

    stream = "churn_repair"

    def generate(self, rng, sizes) -> Dict[str, np.ndarray]:
        n, bursts = int(sizes["nodes"]), int(sizes["bursts"])
        crashes, lookups = int(sizes["burst_crashes"]), int(sizes["burst_lookups"])
        # The crash order belongs to the scenario, the probes to the seed.
        inputs = {"order": _scenario_rng(self.stream).permutation(n)}
        inputs["warm_origin"], inputs["warm_target"] = _distinct_pairs(
            rng, n, int(sizes["warmup_ops"]))
        for b in range(bursts):
            survivors = n - (b + 1) * crashes
            # indices into order[(b + 1) * crashes:], the peers still up
            inputs[f"origin_{b}"], inputs[f"target_{b}"] = _distinct_pairs(
                rng, survivors, lookups)
        return inputs

    def setup(self, r) -> None:
        from repro import TreePConfig, TreePNetwork

        with r.call("core.treep.build", "core.treep.build_s"):
            r.net = TreePNetwork(config=TreePConfig.paper_case1(), seed=SCENARIO_SEED)
            r.net.build(int(r.sizes["nodes"]))
        with r.generating():
            ids = np.asarray(r.net.ids)[r.inputs["order"]]
            crashes = int(r.sizes["burst_crashes"])
            self.warm_pairs = _as_pairs(np.asarray(r.net.ids), r.inputs["warm_origin"],
                                        r.inputs["warm_target"])
            self.bursts = []
            for b in range(int(r.sizes["bursts"])):
                step = ids[b * crashes:(b + 1) * crashes].tolist()
                pairs = _as_pairs(ids[(b + 1) * crashes:], r.inputs[f"origin_{b}"],
                                  r.inputs[f"target_{b}"])
                half = len(pairs) // 2
                self.bursts.append((step, pairs[:half], pairs[half:]))

    def warmup(self, r) -> None:
        with r.call("core.treep.run_lookup_batch"):
            r.net.run_lookup_batch(self.warm_pairs, "G")

    def measure(self, r) -> None:
        from repro.core.repair import PAPER_POLICY, apply_failure_step

        net = r.net
        tally = self.tally = LookupTally()
        crashed = 0
        for step, greedy, ngsa in self.bursts:
            with r.segment(len(step)):
                with r.call("core.treep.fail_nodes", "core.repair.step_s"):
                    net.fail_nodes(step)
                with r.call("core.repair.apply_failure_step", "core.repair.step_s"):
                    apply_failure_step(net, step, PAPER_POLICY)
            crashed += len(step)
            with r.segment(len(greedy) + len(ngsa)):
                with r.call("core.treep.run_lookup_batch", "core.treep.lookup_batch_s"):
                    res_g = net.run_lookup_batch(greedy, "G")
                with r.call("core.treep.run_lookup_batch", "core.treep.lookup_batch_s"):
                    res_n = net.run_lookup_batch(ngsa, "NGSA")
            tally.add(greedy, res_g)
            tally.add(ngsa, res_n)
        self.crashed = crashed
        r.ops(crashed + tally.issued, crashed + tally.found, tally.hops, tally.found)

    def finish(self, r) -> None:
        self.tally.report(r)
        alive = len(r.net.alive_ids())
        expected = int(r.sizes["nodes"]) - self.crashed
        r.check("churn.crashed_peers_are_down", alive == expected,
                f"{alive} peers up, expected {expected}")
        step_s = r.host.get("core.repair.step_s", 0.0)
        r.host["core.repair.crashes_per_s"] = self.crashed / step_s if step_s else 0.0
        batch_s = r.host.get("core.treep.lookup_batch_s", 0.0)
        r.host["core.treep.post_churn_lookups_per_s"] = (
            self.tally.issued / batch_s if batch_s else 0.0)


class LwwRegister:
    """Reference model of the store under one closed-loop client: every GET
    must return the last acked PUT of its key."""

    def __init__(self) -> None:
        self.value: Dict[str, object] = {}
        self.maybe: Dict[str, set] = {}     # values of PUTs that were not acked
        self.stale_reads = self.put_failed = self.get_missed = 0
        self.ok = self.hops = 0

    def put(self, key: str, value, result) -> None:
        if result.ok:
            self.value[key] = value
            self.maybe.pop(key, None)
            self.ok += 1
            self.hops += result.hops
        else:
            self.put_failed += 1
            self.maybe.setdefault(key, set()).add(value)

    def get(self, key: str, result) -> None:
        if not result.found:
            self.get_missed += 1
            return
        self.ok += 1
        self.hops += result.hops
        if result.value != self.value.get(key) and result.value not in self.maybe.get(key, ()):
            self.stale_reads += 1


class StorageRw:
    """Closed-loop quorum PUT/GET against a seeded key space."""

    stream = "storage_rw"

    def generate(self, rng, sizes) -> Dict[str, np.ndarray]:
        keys = int(sizes["keys"])
        total = int(sizes["warmup_ops"] + sizes["segments"] * sizes["segment_ops"])
        weights = 1.0 / np.arange(1, keys + 1) ** ZIPF_S
        # Which key holds which popularity rank is scenario (where the hot
        # keys live sets the mean hop count); the op stream is the seed's.
        ranked = _scenario_rng(self.stream).permutation(keys)
        return {
            "key": ranked[rng.choice(keys, size=total, p=weights / weights.sum())],
            "is_put": rng.random(total) < PUT_SHARE,
        }

    def setup(self, r) -> None:
        from repro import Cluster, QuorumConfig, TreePConfig

        n, w, rd = QUORUM
        with r.call("cluster.build", "core.treep.build_s"):
            self.cluster = Cluster(config=TreePConfig.paper_case1(),
                                   seed=SCENARIO_SEED).build(int(r.sizes["nodes"]))
        with r.call("cluster.with_storage", "cluster.attach_s"):
            self.cluster.with_storage(QuorumConfig(n=n, w=w, r=rd),
                                      anti_entropy=ANTI_ENTROPY_INTERVAL)
        r.net = self.cluster.net
        self.store = self.cluster.storage
        self.register = LwwRegister()
        self.keys = [f"perf/{i:05d}" for i in range(int(r.sizes["keys"]))]
        with r.call("storage.seed_keys"):
            for i, key in enumerate(self.keys):
                self.register.put(key, -1 - i, self.store.put(key, -1 - i))
        with r.generating():
            self.key_of = [self.keys[i] for i in r.inputs["key"].tolist()]
            self.is_put = r.inputs["is_put"].tolist()
            total = len(self.key_of)
            # Per-call clocks land in preallocated lists; spans and
            # percentiles are derived from them after the phase.
            self.t0 = [0.0] * total
            self.t1 = [0.0] * total
            self.results: List[object] = [None] * total
        self.done = 0

    def _run_ops(self, r, count: int) -> None:
        put, get, clock = self.store.put, self.store.get, r.clock
        key_of, is_put = self.key_of, self.is_put
        t0, t1, results = self.t0, self.t1, self.results
        first = self.done
        for j in range(first, first + count):
            key = key_of[j]
            if is_put[j]:
                a = clock()
                res = put(key, j)
                b = clock()
            else:
                a = clock()
                res = get(key)
                b = clock()
            t0[j] = a
            t1[j] = b
            results[j] = res
        self.done = first + count

    def _replay(self, first: int, last: int) -> None:
        reg = self.register
        for j in range(first, last):
            if self.is_put[j]:
                reg.put(self.key_of[j], j, self.results[j])
            else:
                reg.get(self.key_of[j], self.results[j])
            self.results[j] = None

    def warmup(self, r) -> None:
        count = int(r.sizes["warmup_ops"])
        with r.call("storage.warmup_ops"):
            self._run_ops(r, count)
        self._replay(0, count)
        self.measured_from = count
        self.register.ok = self.register.hops = 0

    def measure(self, r) -> None:
        step = int(r.sizes["segment_ops"])
        for _ in range(int(r.sizes["segments"])):
            first = self.done
            with r.segment(step):
                self._run_ops(r, step)
            if r.traced:
                r.calls_from_clocks(
                    ("storage.quorum.put" if self.is_put[j] else "storage.quorum.get",
                     self.t0[j], self.t1[j]) for j in range(first, self.done))
            self._replay(first, self.done)
        reg = self.register
        r.ops(self.done - self.measured_from, reg.ok, reg.hops, reg.ok)

    def finish(self, r) -> None:
        reg = self.register
        lo, hi = self.measured_from, self.done
        us = (np.asarray(self.t1[lo:hi]) - np.asarray(self.t0[lo:hi])) * 1e6
        puts = np.asarray(self.is_put[lo:hi])
        for kind, sample in (("put", us[puts]), ("get", us[~puts])):
            r.host[f"storage.quorum.{kind}_s"] = float(sample.sum()) / 1e6
            r.host[f"storage.quorum.{kind}_p50_us"] = float(np.percentile(sample, 50))
            r.host[f"storage.quorum.{kind}_p99_us"] = float(np.percentile(sample, 99))
        r.count("storage.quorum.put_failed", reg.put_failed)
        r.count("storage.quorum.get_missed", reg.get_missed)
        r.count("storage.quorum.stale_reads", reg.stale_reads)
        r.count("storage.quorum.mean_hops", reg.hops / reg.ok if reg.ok else 0.0)
        r.check("storage.lww_register", reg.stale_reads == 0,
                f"{reg.stale_reads} GETs returned something other than the last acked PUT")
        r.check("storage.every_op_answered", reg.put_failed == 0 and reg.get_missed == 0,
                f"{reg.put_failed} PUTs not acked, {reg.get_missed} GETs missed")
        _converge(r, self.cluster)
        with r.call("cluster.shutdown", "cluster.shutdown_s"):
            self.cluster.shutdown()


def _converge(r, cluster) -> None:
    """One explicit anti-entropy ``converge()``, timed outside ``ops_per_s``.

    Traced round only: at N=5000 with 2048 keys it takes about three times
    as long as the measured phase itself, and it tells nothing end to end.
    The periodic sweep stays unarmed for the same reason (one sweep per 10
    sim seconds would be >1000 sweeps per round).
    """
    if not r.traced:
        return
    anti = cluster.anti_entropy
    before = len(anti.reports)
    with r.call("storage.antientropy.converge", "storage.antientropy.converge_s"):
        anti.converge()
    r.count("storage.antientropy.repair_datagrams",
            sum(rep.repairs_sent for rep in anti.reports[before:]))


class GridJobs:
    """Open-loop (in sim time) job arrivals on a churn-free grid."""

    stream = "grid_jobs"

    def generate(self, rng, sizes) -> Dict[str, np.ndarray]:
        jobs = int(sizes["jobs"])
        mu = np.log(sizes["work_mean"]) - 0.5 * WORK_SIGMA ** 2
        work = rng.lognormal(mu, WORK_SIGMA, size=jobs)
        return {
            # A Poisson process conditioned on its count: `jobs` arrivals,
            # uniform over jobs/rate sim seconds.  With the work tail cut at
            # WORK_CAP x mean this pins the run's sim length, and with it the
            # steal-probe count that dominates datagrams and host time.
            "arrival": np.sort(rng.uniform(0.0, jobs / sizes["rate"], size=jobs)),
            "work": np.clip(work, 1.0, WORK_CAP * sizes["work_mean"]),
            "demand": rng.choice(len(DEMAND_CLASSES), size=jobs, p=DEMAND_WEIGHTS),
            "constrained": rng.random(jobs) < CONSTRAINED_SHARE,
            "constraint": rng.integers(0, 3, size=jobs),
        }

    def setup(self, r) -> None:
        from repro import Cluster, ComputeConfig, JobSpec, QuorumConfig, TreePConfig
        from repro.services.discovery import Constraint

        n, w, rd = QUORUM
        with r.call("cluster.build", "core.treep.build_s"):
            self.cluster = Cluster(config=TreePConfig.paper_case1(),
                                   seed=SCENARIO_SEED).build(int(r.sizes["nodes"]))
        with r.call("cluster.with_storage", "cluster.attach_s"):
            self.cluster.with_storage(QuorumConfig(n=n, w=w, r=rd),
                                      anti_entropy=ANTI_ENTROPY_INTERVAL)
        with r.call("cluster.with_compute", "cluster.attach_s"):
            self.cluster.with_compute(ComputeConfig(checkpoint_interval=CHECKPOINT_INTERVAL))
        r.net = self.cluster.net
        with r.generating():
            pool = (Constraint(min_cpu=2.0), Constraint(min_memory_gb=4.0),
                    Constraint(min_cpu=2.0, min_bandwidth_mbps=20.0))
            free = Constraint()
            inp = r.inputs
            arrive = r.net.sim.now + inp["arrival"]
            self.specs = [
                JobSpec(job_id=i + 1,
                        cpu_demand=DEMAND_CLASSES[int(inp["demand"][i])],
                        work=float(inp["work"][i]),
                        constraint=pool[int(inp["constraint"][i])]
                        if inp["constrained"][i] else free,
                        submit_at=float(arrive[i]))
                for i in range(len(arrive))
            ]

    def warmup(self, r) -> None:
        """A batch job has no steady state to warm: every job is measured."""

    def measure(self, r) -> None:
        grid, sim = self.cluster.compute, r.net.sim
        window, deadline = r.sizes["window_s"], sim.now + r.sizes["timeout_s"]
        with r.call("compute.scheduler.schedule_submissions", "compute.scheduler.run_s"):
            grid.schedule_submissions(self.specs)
        done = False
        while not done and sim.now < deadline:
            before = len(grid.results)
            with r.segment(0) as seg:
                with r.call("compute.scheduler.run_until_done", "compute.scheduler.run_s"):
                    done = grid.run_until_done(timeout=window)
            seg.ops = len(grid.results) - before
        self.finished = done
        self.stats = stats = grid.stats()
        r.ops(stats.submitted, stats.completed, stats.placement_hops, stats.placements)

    def finish(self, r) -> None:
        stats = self.stats
        r.check("grid.all_jobs_complete",
                self.finished and stats.completion_rate == 1.0,
                f"{stats.completed}/{stats.submitted} jobs ok, "
                f"run_until_done={'done' if self.finished else 'timed out'}")
        r.check("grid.goodput", stats.goodput > 0.99, f"goodput {stats.goodput:.4f}")
        r.count("compute.scheduler.placement_hops_mean", stats.mean_placement_hops)
        r.count("compute.scheduler.reexecutions", stats.reexecutions)
        r.count("compute.scheduler.failovers", stats.failovers)
        r.count("compute.worker.checkpoints_written", stats.checkpoints_written)
        r.count("compute.goodput", stats.goodput)
        _converge(r, self.cluster)
        with r.call("cluster.shutdown", "cluster.shutdown_s"):
            self.cluster.shutdown()


DRIVERS = {
    "lookup_steady": LookupSteady,
    "lookup_observed": LookupObserved,
    "churn_repair": ChurnRepair,
    "storage_rw": StorageRw,
    "grid_jobs": GridJobs,
}
