"""Scenario execution: run one registered scenario, envelope the result.

This is the seam everything shares — the CLI's ``run`` subcommand and
the tests (the tier-1 golden among them) both call
:func:`run_scenario`, so every execution path emits the same
:class:`~repro.bench.result.BenchResult` and (optionally) writes the same
``benchmarks/out/bench_<name>.json`` file.
"""

from __future__ import annotations

import os
import time
from typing import Any, Mapping, Optional

from repro.bench.result import BenchResult
from repro.bench.scenario import registry


def run_scenario(name: str, *, seed: Optional[int] = None, smoke: bool = False,
                 overrides: Optional[Mapping[str, Any]] = None,
                 out_dir: Optional[str] = None,
                 trace_out: Optional[str] = None) -> BenchResult:
    """Execute scenario *name* and return its envelope.

    When *out_dir* is given the envelope is also written there as
    ``bench_<name>.json`` — ``bench_<name>.smoke.json`` for smoke runs —
    the file the committed golden holds and ``tools/diff_envelopes.py``
    diffs.  The only clock read here feeds ``wall_time_s``, which is not
    serialised.

    When *trace_out* is given the scenario executes under an ambient
    observability capture (:func:`repro.obs.runtime.capture`): every
    network the scenario builds records spans/events into its own run of
    ``trace_<name>.npz`` (``trace_<name>.smoke.npz`` for smoke) under that
    directory, queryable with ``python -m repro.obs``.  The envelope's
    optional ``obs`` field records the trace path and totals.  The
    scenario's deterministic metrics are unaffected — instrumentation
    draws no randomness and schedules no events.
    """
    scenario = registry.get(name)
    effective_seed = scenario.seed if seed is None else seed
    params = scenario.effective_params(smoke=smoke, overrides=overrides)
    if trace_out is None:
        t0 = time.perf_counter()
        output = scenario.execute(seed=effective_seed, smoke=smoke,
                                  overrides=overrides)
        wall = time.perf_counter() - t0
        obs_info = {}
    else:
        from repro.obs.runtime import capture

        with capture() as cap:
            t0 = time.perf_counter()
            output = scenario.execute(seed=effective_seed, smoke=smoke,
                                      overrides=overrides)
            wall = time.perf_counter() - t0
        suffix = ".smoke.npz" if smoke else ".npz"
        trace_file = os.path.join(trace_out, f"trace_{name}{suffix}")
        cap.write(trace_file, meta_extra={
            "scenario": name, "seed": effective_seed, "smoke": smoke})
        obs_info = {
            "trace_file": trace_file,
            "runs": len(cap.hubs),
            "spans": cap.span_count(),
            "events": cap.event_count(),
            "categories": cap.category_counts(),
        }
    result = BenchResult.from_output(
        scenario, output, seed=effective_seed, smoke=smoke, params=params,
        wall_time_s=wall)
    result.obs = obs_info
    if out_dir is not None:
        result.write(out_dir)
    return result
