"""One round of one workload: setup -> warm-up -> measured phase -> teardown.

A round normally runs in a fresh process (``run.py`` spawns
``perf_round.py`` once per round) so that import time, heap layout and
peak RSS are a round's own.  Everything recorded here comes from outside
the program: clocks around driver-level calls, public counters read before
and after the measured phase, the collector's own callbacks, and — in a
traced round only — ``cProfile`` over the measured phase folded by source
path into layers.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from perf_registry import WORKLOAD_INDEX, WORKLOADS, layer_of

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
SCRATCH = os.path.join(HERE, ".scratch")


def calibrate() -> float:
    """Seconds a fixed pure-Python + numpy kernel takes right now.

    Timed at the start and end of every round and stored beside the
    results: when two result sets disagree, this tells machine drift from
    a code change.  Informational — never a metric.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(120000):
        table[i & 1023] = acc
        acc += (i * i) % 7
    arr = np.arange(200_000, dtype=np.float64)
    for _ in range(24):
        arr = np.sqrt(arr * 1.0001 + 1.0)
    float(arr.sum())
    return time.perf_counter() - t0


class Segment:
    __slots__ = ("span", "ops")

    def __init__(self, span: int, ops: int) -> None:
        self.span, self.ops = span, ops


class Round:
    """What a workload driver records into; see :mod:`perf_workloads`."""

    clock = staticmethod(time.perf_counter)

    def __init__(self, sizes: dict, traced: bool, scratch: str) -> None:
        self.sizes, self.traced, self.scratch = sizes, traced, scratch
        self.inputs: Dict[str, object] = {}
        self.net = None                      # the TreePNetwork under test
        #: [name, start, end, parent, segment]; parent -1 = the round itself
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._segment = -1
        self.segments: List[Segment] = []
        self.host: Dict[str, float] = {}     # host-clock per-layer values
        self.counts: Dict[str, float] = {}   # exact per-layer values
        self.checks: List[dict] = []
        self.gen_s = 0.0
        self.attempted = self.succeeded = 0
        self.hops_sum = self.hops_n = 0

    # -------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str):
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._segment]
        self.spans.append(row)
        index = len(self.spans) - 1
        self._stack.append(index)
        row[1] = self.clock()
        try:
            yield index
        finally:
            row[2] = self.clock()
            self._stack.pop()

    @contextmanager
    def call(self, name: str, host_key: Optional[str] = None):
        """Span around one driver-level call into a layer's public function;
        its duration is added to the host metric *host_key* when given."""
        with self.span(name) as index:
            yield
        if host_key is not None:
            row = self.spans[index]
            self.host[host_key] = self.host.get(host_key, 0.0) + row[2] - row[1]

    @contextmanager
    def segment(self, ops: int):
        """One timed slice of the measured phase holding *ops* operations."""
        self._segment = len(self.segments)
        with self.span("segment") as index:
            seg = Segment(index, ops)
            self.segments.append(seg)
            yield seg
        self._segment = -1

    def calls_from_clocks(self, calls) -> None:
        """Add per-op call spans to the last segment from recorded clocks
        (for traced rounds: an untraced round keeps just the durations)."""
        seg = self.segments[-1]
        index = len(self.segments) - 1
        self.spans.extend([name, t0, t1, seg.span, index] for name, t0, t1 in calls)

    @contextmanager
    def generating(self):
        """Input materialisation: timed into ``bench.gen_s``, excluded from
        every other metric (a surrounding phase span is shortened by it)."""
        t0 = self.clock()
        yield
        self.gen_s += self.clock() - t0

    # ------------------------------------------------------------ results
    def ops(self, attempted: int, succeeded: int, hops_sum: int, hops_n: int) -> None:
        self.attempted, self.succeeded = int(attempted), int(succeeded)
        self.hops_sum, self.hops_n = hops_sum, hops_n

    def count(self, name: str, value) -> None:
        self.counts[name] = value

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]


class GcWatch:
    """Sums collector pauses through ``gc.callbacks`` (GC itself stays at
    the interpreter's defaults: that is what every caller pays)."""

    def __init__(self) -> None:
        self.pause_s, self.gen2, self._t0 = 0.0, 0, 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            if info["generation"] == 2:
                self.gen2 += 1


def _network_counters(net) -> Dict[str, float]:
    stats = net.network.stats
    return {
        "events": net.sim.events_processed,
        "sent": stats.sent,
        "delivered": stats.delivered,
        "dropped": stats.drop_total(),
        "bytes_sent": stats.bytes_sent,
        "steal_requests": stats.by_type.get("JobStealRequest", 0),
        "versions": sum(node.table.version for node in net.nodes.values()),
    }


def fold_profile(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """cProfile stats -> ``{layer: {"self_s", "calls_in"}}`` (+ ``"?"`` for
    time in ``repro`` files that :func:`perf_registry.layer_of` cannot name).
    """
    profile.create_stats()
    layers: Dict[str, Dict[str, float]] = {}
    cache: Dict[str, str] = {}

    def layer(func) -> str:
        path = func[0]
        if path not in cache:
            cache[path] = layer_of(path) or "?"
        return cache[path]

    for func, (_cc, _nc, tottime, _ct, callers) in profile.stats.items():
        mine = layer(func)
        slot = layers.setdefault(mine, {"self_s": 0.0, "calls_in": 0})
        slot["self_s"] += tottime
        for caller, (calls, *_rest) in callers.items():
            if layer(caller) != mine:
                slot["calls_in"] += calls
    return layers


def input_digest(inputs: Dict[str, object]) -> str:
    digest = hashlib.sha256()
    for key in sorted(inputs):
        arr = inputs[key]
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def run_round(workload: str, seed: int, smoke: bool = False, traced: bool = False) -> dict:
    """Run one round in this process and return its raw record."""
    if SRC not in sys.path and os.path.isdir(os.path.join(SRC, "repro")):
        sys.path.insert(0, SRC)
    t_import = time.perf_counter()
    import numpy as np
    import repro  # noqa: F401  (timed: runtime.import_s)
    import_s = time.perf_counter() - t_import

    from perf_workloads import DRIVERS     # imports numpy: after the timed import

    spec = WORKLOADS[WORKLOAD_INDEX[workload]]
    sizes = dict(spec.smoke if smoke else spec.sizes)
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        r = Round(sizes, traced, tmp)
        calib = [calibrate()]
        driver = DRIVERS[workload]()

        with r.generating():
            rng = np.random.default_rng([seed, WORKLOAD_INDEX[driver.stream]])
            r.inputs = driver.generate(rng, sizes)
            digest = input_digest(r.inputs)

        gen_before = r.gen_s
        with r.span("setup") as setup_span:
            driver.setup(r)
            with r.span("warmup"):
                driver.warmup(r)
        setup_s = import_s + r.duration(setup_span) - (r.gen_s - gen_before)

        watch = GcWatch()
        profile = cProfile.Profile() if traced else None
        before = _network_counters(r.net)
        gc.callbacks.append(watch)
        try:
            with r.span("measure"):
                if profile is not None:
                    profile.enable()
                try:
                    driver.measure(r)
                finally:
                    if profile is not None:
                        profile.disable()
        finally:
            gc.callbacks.remove(watch)
        after = _network_counters(r.net)
        pending_end = r.net.sim.pending

        with r.span("teardown"):
            driver.finish(r)
        calib.append(calibrate())

    seg_s = [r.duration(seg.span) for seg in r.segments]
    seg_ops = [seg.ops for seg in r.segments]
    measured_s = sum(seg_s)
    delta = {k: after[k] - before[k] for k in after}
    ops = r.attempted
    sizes_after = r.net.routing_table_sizes().values()
    counts = {
        "sim.engine.events": delta["events"],
        "sim.engine.events_per_op": delta["events"] / ops,
        "sim.engine.pending_end": pending_end,
        "sim.network.sent": delta["sent"],
        "sim.network.delivered": delta["delivered"],
        "sim.network.dropped": delta["dropped"],
        "sim.network.bytes_sent": delta["bytes_sent"],
        "sim.network.delivery_ratio": delta["delivered"] / delta["sent"] if delta["sent"] else 0.0,
        "core.routing_table.entries_mean": sum(sizes_after) / len(sizes_after),
        "core.routing_table.entries_max": max(sizes_after),
        "core.routing_table.version_bumps": delta["versions"],
        "compute.worker.steal_requests": delta["steal_requests"],
    }
    counts.update(r.counts)
    host = {
        "sim.engine.events_per_s": delta["events"] / measured_s,
        "runtime.import_s": import_s,
        "runtime.gc_s": watch.pause_s,
        "runtime.gc_gen2": float(watch.gen2),
        "bench.gen_s": r.gen_s,
    }
    host.update(r.host)
    record = {
        "workload": workload, "input_sha256": digest, "sizes": sizes,
        "attempted": ops, "failed": ops - r.succeeded,
        "exact": {
            "sim_success_rate": r.succeeded / ops,
            "sim_mean_hops": r.hops_sum / r.hops_n if r.hops_n else 0.0,
            "sim_msgs_per_op": delta["sent"] / ops,
        },
        "setup_s": setup_s,
        "measured_s": measured_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "seg_s": seg_s, "seg_ops": seg_ops,
        "counts": counts, "host": host, "checks": r.checks,
        "calibration_s": calib,
    }
    if traced:
        record["profile"] = fold_profile(profile)
        record["spans"] = [
            {"id": i, "name": row[0], "start": row[1], "end": row[2],
             "parent": row[3], "segment": row[4]}
            for i, row in enumerate(r.spans)
        ]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark round (internal)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    record = run_round(args.workload, args.seed, smoke=bool(args.smoke),
                       traced=bool(args.trace))
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
