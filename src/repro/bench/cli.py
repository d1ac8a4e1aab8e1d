"""The harness CLI: ``python -m repro.bench run|list|report``.

* ``list`` — the scenario catalogue (name, group, params, metric count).
* ``run [NAMES] [--group G] [--smoke] [--seed S] [--set k=v] [--out DIR]``
  — execute scenarios through the Cluster-facade-backed runners, print
  each rendered figure/table, write one ``bench_<name>.json``
  :class:`~repro.bench.result.BenchResult` per scenario.  Exit 1 if any
  scenario check fails.
* ``report`` — the scenario catalogue as markdown, for the docs.

Two result directories are compared by ``python tools/diff_envelopes.py
OLD NEW`` — envelopes are pure functions of their inputs, so the exact
diff is the comparison.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.bench.report import scenario_table
from repro.bench.runner import run_scenario
from repro.bench.scenario import GROUPS, registry
from repro.viz.ascii import table

DEFAULT_OUT = "benchmarks/out"


def _parse_override(text: str) -> Any:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Unified benchmark harness: run scenarios, record the "
                    "golden, render the catalogue.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the scenario catalogue")

    run_p = sub.add_parser("run", help="execute scenarios, write BenchResult JSON")
    run_p.add_argument("names", nargs="*",
                       help="scenario names (default: every scenario)")
    run_p.add_argument("--group", choices=GROUPS,
                       help="run every scenario in one group")
    run_p.add_argument("--smoke", action="store_true",
                       help="reduced parameters (CI-speed, same code paths)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override every scenario's seed")
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one parameter")
    run_p.add_argument("--out", default=DEFAULT_OUT,
                       help=f"result directory (default: {DEFAULT_OUT})")
    run_p.add_argument("--no-write", action="store_true",
                       help="do not write result files")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress the rendered figures/tables")
    run_p.add_argument("--trace-out", default=None, metavar="DIR",
                       help="record an observability trace per scenario to "
                            "DIR/trace_<name>.npz (query with "
                            "`python -m repro.obs summary`)")

    sub.add_parser("report", help="render the scenario catalogue as markdown")
    return parser


def _select(names: List[str], group: Optional[str]) -> List[str]:
    if names and group:
        raise SystemExit("give scenario names or --group, not both")
    if group:
        return [s.name for s in registry.by_group(group)]
    if names:
        for name in names:
            registry.get(name)  # raises with the known-name list
        return names
    return [s.name for s in registry.all()]


def _cmd_list() -> int:
    rows = [[s.name, s.group, f"{len(s.metrics)}",
             s.description] for s in registry.all()]
    print(table(["scenario", "group", "metrics", "what it measures"], rows,
                title=f"repro.bench — {len(registry)} registered scenarios"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    overrides: Dict[str, Any] = {}
    for item in args.overrides:
        if "=" not in item:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key] = _parse_override(value)

    names = _select(args.names, args.group)
    if overrides:
        # Validate --set against every selected scenario up front — a
        # KeyError after minutes of completed scenarios helps nobody.
        bad = []
        for name in names:
            try:
                registry.get(name).effective_params(smoke=args.smoke,
                                                    overrides=overrides)
            except (KeyError, ValueError) as exc:
                bad.append(f"  {name}: {exc.args[0]}")
        if bad:
            raise SystemExit(
                "--set does not apply to every selected scenario:\n"
                + "\n".join(bad)
                + "\nname the scenarios explicitly to use these overrides")
    out_dir = None if args.no_write else args.out
    failed_scenarios: List[str] = []
    for name in names:
        result = run_scenario(name, seed=args.seed, smoke=args.smoke,
                              overrides=overrides or None, out_dir=out_dir,
                              trace_out=args.trace_out)
        failed = result.failed_checks()
        status = "ok" if not failed else f"{len(failed)} CHECK(S) FAILED"
        suffix = ".smoke.json" if args.smoke else ".json"
        print(f"[{result.scenario}] {status} — {result.wall_time_s:.2f}s, "
              f"{len(result.metrics)} metrics"
              + (f" -> {out_dir}/bench_{name}{suffix}" if out_dir else ""))
        if result.obs:
            print(f"  trace: {result.obs['trace_file']} "
                  f"({result.obs['runs']} run(s), {result.obs['spans']} "
                  f"spans, {result.obs['events']} events)")
        if not args.quiet and result.rendered:
            print(result.rendered)
            print()
        for check in failed:
            print(f"  FAILED {check['name']}: {check.get('detail', '')}")
        if failed:
            failed_scenarios.append(name)
    if failed_scenarios:
        print(f"\nchecks failed in: {', '.join(failed_scenarios)}")
        return 1
    return 0


def _cmd_report() -> int:
    print("## Scenario catalogue\n")
    print(scenario_table())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report()
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
