"""Figure scenarios — the nine §IV figure regenerations, defined here.

Each scenario derives its series/surfaces from the views of a
:class:`~repro.bench.sweep.SweepResult`, renders them with
:mod:`repro.viz.ascii`, and reports the paper's qualitative claims as
:class:`~repro.bench.scenario.Check` verdicts.  All nine derive from the
two failure sweeps (case 1 fixed ``nc`` / case 2 variable ``nc``), and
:func:`~repro.bench.sweep.run_failure_sweep` is memoised per
configuration, so ``python -m repro.bench run`` pays for each sweep once
per process regardless of how many figures it renders.

Scale-sensitive thresholds (wandering-hop peaks, surface peak mass) are
relaxed under ``--smoke``: the reduced population still exercises every
code path, but the paper-scale magnitudes only emerge at n ≈ 1024.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Tuple

import numpy as np

from repro.bench.scenario import Check, Metric, Scenario, ScenarioOutput, registry
from repro.bench.sweep import (
    ALGORITHMS,
    HopSurface,
    SweepConfig,
    SweepResult,
    run_failure_sweep,
)
from repro.metrics.series import Series
from repro.viz.ascii import line_chart, surface_table

FULL = {"n": 1024, "lookups_per_step": 200}
SMOKE = {"n": 256, "lookups_per_step": 60}

_CASE_LABEL = {"case1": "case 1", "case2": "case 2, variable nc"}


def _sweep(params: Mapping[str, Any], seed: int, case: str) -> SweepResult:
    return run_failure_sweep(SweepConfig(
        n=params["n"], seed=seed, case=case,  # type: ignore[arg-type]
        lookups_per_step=params["lookups_per_step"]))


def _chart(series: Iterable[Series], title: str, y_label: str) -> str:
    return line_chart(list(series), title=title, x_label="% failed nodes",
                      y_label=y_label)


def _surfaces(params: Mapping[str, Any], seed: int, case: str,
              figs: str) -> Tuple[Dict[str, HopSurface], str]:
    """One case's surface pair — *figs* names the greedy then the NG figure
    (NGSA's surface is "almost identical to NG" and omitted, as in the
    paper) — plus both rendered tables."""
    sweep = _sweep(params, seed, case)
    surfaces = {fig: sweep.surface(algo) for fig, algo in zip(figs, ("G", "NG"))}
    rendered = "\n\n".join(
        surface_table(
            surf.failed_percent, surf.percent_rows,
            title=(f"Figure {fig} — % of requests resolved in k hops "
                   f"({_CASE_LABEL[case]}, algorithm {surf.algo}, "
                   f"n={params['n']})"))
        for fig, surf in surfaces.items())
    return surfaces, rendered


def _failure_curves(params, seed, case: str, fig: str, label: str):
    """Figures A / C: one failure curve per algorithm."""
    sweep = _sweep(params, seed, case)
    series = {algo: sweep.failure_series(algo) for algo in ALGORITHMS}
    g = series["G"]
    metrics = {"g_failed_pct_at_30": g.interp(30.0),
               "g_failed_pct_at_80": g.interp(80.0)}
    checks = [
        Check("robust_at_30pct_dead", g.interp(30.0) <= 25.0,
              f"G failed% at 30% dead = {g.interp(30.0):.1f} (<= 25)"),
        Check("failure_curve_grows", g.interp(80.0) >= g.interp(20.0),
              f"{g.interp(80.0):.1f} >= {g.interp(20.0):.1f}"),
    ]
    rendered = _chart(
        series.values(),
        f"Figure {fig} — failed lookups vs failed nodes "
        f"({label}, n={params['n']})",
        "% failed lookups")
    return series, metrics, checks, rendered


def _figure_a(params, seed, smoke):
    series, metrics, checks, rendered = _failure_curves(
        params, seed, "case1", "A", "case 1, nc=4")
    at30 = [series[a].interp(30.0) for a in ALGORITHMS]
    metrics["algo_spread_at_30"] = max(at30) - min(at30)
    checks.append(
        Check("algorithms_one_family", max(at30) - min(at30) <= 15.0,
              f"G/NG/NGSA spread at 30% dead = {max(at30) - min(at30):.1f}"))
    return ScenarioOutput(metrics, checks, rendered)


def _figure_b(params, seed, smoke):
    sweep = _sweep(params, seed, "case1")
    series = {algo: sweep.hops_series(algo) for algo in ALGORITHMS}
    g = series["G"]
    first_half = g.ys()[: len(g) // 2]
    spread = float(np.max(first_half) - np.min(first_half))
    metrics = {"g_hops_steady": float(g.ys()[0]),
               "g_hops_spread_first_half": spread}
    checks = [
        Check("log_scale_steady_hops", 2.0 <= g.ys()[0] <= 12.0,
              f"steady-state hops = {g.ys()[0]:.2f}"),
        Check("flat_through_first_half", spread <= 4.0,
              f"hop spread over first half = {spread:.2f} (<= 4)"),
    ]
    return ScenarioOutput(metrics, checks, _chart(
        series.values(),
        f"Figure B — average hops vs failed nodes (case 1, nc=4, n={params['n']})",
        "average hops (successful lookups)"))


def _figure_c(params, seed, smoke):
    _, metrics, checks, rendered = _failure_curves(
        params, seed, "case2", "C", "case 2, variable nc")
    return ScenarioOutput(metrics, checks, rendered)


def _figure_d(params, seed, smoke):
    series = {}
    for label, case in (("fixed nc=4", "case1"), ("variable nc", "case2")):
        series[label] = _sweep(params, seed, case).hops_series("G")
        series[label].label = f"{label} (G)"
    fixed, variable = series["fixed nc=4"], series["variable nc"]
    var_spread = float(np.ptp(variable.ys()[: len(variable) * 3 // 4]))
    metrics = {
        "fixed_hops_at_10": fixed.interp(10.0),
        "variable_hops_at_10": variable.interp(10.0),
        "variable_hops_spread": var_spread,
    }
    checks = [
        Check("flatter_hierarchy_no_extra_hops",
              variable.interp(10.0) <= fixed.interp(10.0) + 1.0,
              f"variable {variable.interp(10.0):.2f} vs fixed "
              f"{fixed.interp(10.0):.2f} (+1 slack)"),
        Check("variable_nc_tracks_failures", var_spread >= 0.5,
              f"variable-nc hop spread = {var_spread:.2f} (>= 0.5)"),
    ]
    return ScenarioOutput(metrics, checks, _chart(
        series.values(),
        f"Figure D — average hops, fixed vs variable nc (n={params['n']})",
        "average hops (successful lookups)"))


def _figure_e(params, seed, smoke):
    smax, smin = _sweep(params, seed, "case1").failed_hops_series("G")
    ordered = all(a >= b for a, b in zip(smax.ys(), smin.ys()))
    wander_floor = 4.0 if smoke else 10.0
    metrics = {"max_failed_hops_peak": smax.max_y(),
               "min_failed_hops_peak": smin.max_y()}
    checks = [
        Check("ttl_backstop_holds", smax.max_y() <= 256,
              f"max failed hops = {smax.max_y():.0f} (<= TTL backstop 256)"),
        Check("max_dominates_min", ordered, "max >= min at every step"),
        Check("wandering_request_signature", smax.max_y() >= wander_floor,
              f"peak failed hops = {smax.max_y():.0f} (>= {wander_floor:g})"),
    ]
    return ScenarioOutput(metrics, checks, _chart(
        (smax, smin),
        f"Figure E — max/min failed-lookup hops (case 1, n={params['n']})",
        "hops travelled by failed lookups"))


def _figure_f(params, seed, smoke):
    surfaces, rendered = _surfaces(params, seed, "case1", "FG")
    surf = surfaces["F"]
    ridge = surf.ridge_hops()
    early = ridge[: len(ridge) // 2]
    peak_hops, peak_pct = surf.peak()
    peak_floor = 10.0 if smoke else 15.0
    ridge_tol = 6 if smoke else 4  # noisier ridge at smoke population
    metrics = {"ridge_hops_start": float(ridge[0]),
               "ridge_spread_first_half": float(max(early) - min(early)),
               "peak_hops": float(peak_hops), "peak_pct": peak_pct}
    checks = [
        Check("ridge_near_constant", max(early) - min(early) <= ridge_tol,
              f"ridge spread over first half = {max(early) - min(early)} "
              f"(<= {ridge_tol})"),
        Check("ridge_log_scale", 2 <= ridge[0] <= 10,
              f"steady-state modal hops = {ridge[0]}"),
        Check("peak_mass_concentrated", peak_pct >= peak_floor,
              f"peak = {peak_pct:.1f}% at {peak_hops} hops "
              f"(>= {peak_floor:g}%)"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


def _figure_g(params, seed, smoke):
    surfaces, rendered = _surfaces(params, seed, "case1", "FG")
    ridge = surfaces["G"].ridge_hops()
    early = ridge[: len(ridge) // 2]
    g_cum8 = float(sum(surfaces["F"].percent_rows[0][:9]))
    ng_cum8 = float(sum(surfaces["G"].percent_rows[0][:9]))
    metrics = {"ng_ridge_hops_start": float(ridge[0]),
               "g_cum_pct_within_8_hops": g_cum8,
               "ng_cum_pct_within_8_hops": ng_cum8}
    checks = [
        Check("ng_ridge_bounded", all(1 <= r <= 14 for r in early),
              f"early ridge = {early}"),
        # The paper reports G slightly more front-loaded than NG (~50% vs
        # ~45% within 4 hops); this reproduction asserts only the
        # family-level claim that both are front-loaded.
        Check("both_front_loaded", g_cum8 >= 50.0 and ng_cum8 >= 50.0,
              f"steady-state mass within 8 hops: G {g_cum8:.1f}%, "
              f"NG {ng_cum8:.1f}% (>= 50%)"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


def _figure_h(params, seed, smoke):
    surfaces, rendered = _surfaces(params, seed, "case2", "HI")
    surf = surfaces["H"]
    ridge = surf.ridge_hops()
    case1 = _sweep(params, seed, "case1").surface("G")
    metrics = {"ridge_hops_start": float(ridge[0]),
               "peak_pct": surf.peak()[1],
               "case1_peak_pct": case1.peak()[1]}
    checks = [
        Check("ridge_log_scale", 1 <= ridge[0] <= 8,
              f"steady-state modal hops = {ridge[0]}"),
        Check("steeper_than_case1",
              surf.peak()[1] >= case1.peak()[1] - 8.0,
              f"case-2 peak {surf.peak()[1]:.1f}% vs case-1 "
              f"{case1.peak()[1]:.1f}% (-8 slack)"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


def _figure_i(params, seed, smoke):
    surfaces, rendered = _surfaces(params, seed, "case2", "HI")
    surf = surfaces["I"]
    ridge = surf.ridge_hops()
    g_peak, ng_peak = surfaces["H"].peak(), surf.peak()
    metrics = {"ng_ridge_hops_start": float(ridge[0]),
               "g_peak_hops": float(g_peak[0]),
               "ng_peak_hops": float(ng_peak[0])}
    checks = [
        Check("ridge_log_scale", 1 <= ridge[0] <= 8,
              f"steady-state modal hops = {ridge[0]}"),
        Check("ng_mirrors_g", abs(g_peak[0] - ng_peak[0]) <= 4,
              f"peak hops G={g_peak[0]} vs NG={ng_peak[0]} (<= 4 apart)"),
    ]
    return ScenarioOutput(metrics, checks, rendered)


_FIGURES = (
    ("figure_a", _figure_a,
     "% failed lookups vs % failed nodes, case 1 (paper §IV.a)",
     (Metric("g_failed_pct_at_30", "%", "lower", "G failed lookups at 30% dead"),
      Metric("g_failed_pct_at_80", "%", "neutral", "G failed lookups at 80% dead"),
      Metric("algo_spread_at_30", "%", "lower", "G/NG/NGSA spread at 30% dead"))),
    ("figure_b", _figure_b,
     "average hops vs % failed nodes, case 1 (paper §IV.a)",
     (Metric("g_hops_steady", "hops", "lower", "steady-state average hops"),
      Metric("g_hops_spread_first_half", "hops", "lower",
             "hop-count drift over the first half of the sweep"))),
    ("figure_c", _figure_c,
     "% failed lookups vs % failed nodes, case 2 / variable nc (paper §IV.b)",
     (Metric("g_failed_pct_at_30", "%", "lower", "G failed lookups at 30% dead"),
      Metric("g_failed_pct_at_80", "%", "neutral", "G failed lookups at 80% dead"))),
    ("figure_d", _figure_d,
     "average hops, fixed vs variable nc (paper §IV.b)",
     (Metric("fixed_hops_at_10", "hops", "lower", "fixed nc=4 hops at 10% dead"),
      Metric("variable_hops_at_10", "hops", "lower", "variable-nc hops at 10% dead"),
      Metric("variable_hops_spread", "hops", "neutral",
             "variable-nc hop drift across the sweep"))),
    ("figure_e", _figure_e,
     "max/min hops of failed lookups, case 1 (paper §IV.a)",
     (Metric("max_failed_hops_peak", "hops", "lower",
             "peak hops wandered by a doomed request"),
      Metric("min_failed_hops_peak", "hops", "neutral"))),
    ("figure_f", _figure_f,
     "hop-distribution surface, case 1, greedy (paper §IV.a)",
     (Metric("ridge_hops_start", "hops", "lower", "steady-state modal hops"),
      Metric("ridge_spread_first_half", "hops", "lower"),
      Metric("peak_hops", "hops", "neutral"),
      Metric("peak_pct", "%", "higher", "request mass at the tallest ridge"))),
    ("figure_g", _figure_g,
     "hop-distribution surface, case 1, NG (paper §IV.a)",
     (Metric("ng_ridge_hops_start", "hops", "lower"),
      Metric("g_cum_pct_within_8_hops", "%", "higher"),
      Metric("ng_cum_pct_within_8_hops", "%", "higher"))),
    ("figure_h", _figure_h,
     "hop-distribution surface, case 2, greedy (paper §IV.b)",
     (Metric("ridge_hops_start", "hops", "lower"),
      Metric("peak_pct", "%", "higher"),
      Metric("case1_peak_pct", "%", "neutral"))),
    ("figure_i", _figure_i,
     "hop-distribution surface, case 2, NG (paper §IV.b)",
     (Metric("ng_ridge_hops_start", "hops", "lower"),
      Metric("g_peak_hops", "hops", "neutral"),
      Metric("ng_peak_hops", "hops", "neutral"))),
)

for _name, _runner, _desc, _metrics in _FIGURES:
    registry.register(Scenario(
        name=_name, group="figures", description=_desc, runner=_runner,
        params=dict(FULL), smoke_params=dict(SMOKE), metrics=_metrics))
