#!/usr/bin/env python3
"""The repo's performance benchmark: five workloads, six end-to-end
metrics, per-layer attribution measured from outside the program.

    python3 benchmarks/perf/run.py [--seed 42] [--workload NAME] [--smoke] [--out DIR]
        full run: 4 untraced rounds per workload (fresh process each,
        interleaved round-robin across workloads) + 1 traced round each;
        prints every metric by name with its unit, writes DIR/result.json
        and DIR/trace_<workload>.json, exits 1 when a check fails.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        driver run (BENCHMARK.json contract): one workload; last stdout
        line is one JSON object.  --trace 0 -> the end-to-end metrics from
        round(S / 4) untraced rounds (S = 12 in BENCHMARK.json: three rounds);
        --trace 1 -> the per-layer metrics from one untraced and one traced
        round.

    python3 benchmarks/perf/run.py --describe [--json]
    python3 benchmarks/perf/run.py agree A.json B.json

See benchmarks/perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

import perf_registry as registry  # noqa: E402
import perf_report as report  # noqa: E402
from perf_round import SRC, run_round  # noqa: E402

ROUND_TIMEOUT_S = 170


class RoundFailed(RuntimeError):
    pass


def spawn_round(workload: str, seed: int, smoke: bool, traced: bool) -> dict:
    """One round in a fresh interpreter; its record comes back on stdout."""
    env = dict(os.environ, PYTHONHASHSEED="0")   # same str hashing in every round
    cmd = [sys.executable, os.path.join(HERE, "perf_round.py"), "--workload", workload,
           "--seed", str(seed), "--smoke", str(int(smoke)), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, env=env, text=True, capture_output=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload}: round exceeded {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RoundFailed(f"{workload}: round exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workloads(names, seed, smoke, rounds, trace=True, in_process=False):
    """Untraced rounds interleaved round-robin across *names* (so slow
    machine drift hits every workload alike), then one traced round each.
    Returns ``{name: aggregated result}`` and ``{name: traced record}``."""
    one = run_round if in_process else spawn_round
    untraced = {name: [] for name in names}
    for _ in range(rounds):
        for name in names:
            untraced[name].append(one(name, seed, smoke, False))
    traced = {name: one(name, seed, smoke, True) for name in names} if trace else {}
    steady = untraced.get("lookup_steady")
    if trace and steady is None and "lookup_observed" in names:
        steady = [one("lookup_steady", seed, smoke, False)]   # the obs-off twin
    results = {}
    for name in names:
        obs_off = report.best_segment_rate(steady) if (
            steady and name == "lookup_observed") else None
        results[name] = report.aggregate(untraced[name], traced.get(name), obs_off)
    return results, traced


def full_run(args) -> int:
    names = [args.workload] if args.workload else [w.name for w in registry.WORKLOADS]
    report.warn_if_loaded()
    stamp = report.stamp(args.seed, args.smoke, ROOT)
    results, traced = run_workloads(names, args.seed, args.smoke, registry.FULL_ROUNDS)
    out = args.out or os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    for name in names:
        print(report.render(results[name]))
        with open(os.path.join(out, f"trace_{name}.json"), "w") as fh:
            json.dump({"workload": name, "seed": args.seed,
                       "spans": traced[name]["spans"],
                       "profile": traced[name]["profile"]}, fh)
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump({"stamp": stamp, "workloads": results}, fh, indent=1)
    failed = [f"{name}: {c['name']}" for name in names
              for c in results[name]["checks"] if not c["ok"]]
    print(f"\nresult set written to {out}/result.json; "
          + (f"FAILED checks: {failed}" if failed else "all checks ok"))
    return 1 if failed else 0


def driver_run(args) -> int:
    """One workload, one JSON object as the last line of stdout."""
    table = registry.PER_LAYER if args.trace else registry.END_TO_END
    rounds = 1 if args.trace else max(1, round(args.seconds / registry.ROUND_NOMINAL_S))
    results, _ = run_workloads([args.workload], args.seed, args.smoke, rounds,
                               trace=bool(args.trace))
    result = results[args.workload]
    for check in result["checks"]:
        if not check["ok"]:
            print(f"FAIL {check['name']}: {check['detail']}", file=sys.stderr)
    print(json.dumps({
        "correct": report.correct(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": result["metrics"][m.name]["value"], "unit": m.unit}
                    for m in table},
    }))
    return 0 if report.correct(result) else 1


def agree_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py agree")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    for label, res in (("A", a), ("B", b)):
        s = res["stamp"]
        print(f"{label}: git {s['git_sha'][:12]} python {s['python']} numpy {s['numpy']} "
              f"nproc {s['nproc']} load {s['loadavg'][0]:.2f} seed {s['seed']}")
    rows = report.agree(a, b)
    print(report.render_agree(rows))
    worse = [r for r in rows if r["verdict"] == "worse"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "agree":
        return agree_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", choices=[w.name for w in registry.WORKLOADS])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (CI, <= 30 s)")
    parser.add_argument("--out", help="directory for result.json and traces")
    parser.add_argument("--seconds", type=float,
                        help="driver run: nominal measured seconds (4 per round)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver run: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--json", action="store_true",
                        help="with --describe: print BENCHMARK.json")
    args = parser.parse_args(argv)

    registry.validate()
    if args.describe:
        print(json.dumps(registry.benchmark_json(), indent=2) if args.json
              else registry.describe())
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    driver = args.seconds is not None or args.trace is not None
    if driver and not args.workload:
        parser.error("--seconds/--trace need --workload")
    try:
        if driver:
            args.seconds = registry.RUN_SECONDS if args.seconds is None else args.seconds
            args.trace = args.trace or 0
            return driver_run(args)
        return full_run(args)
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
