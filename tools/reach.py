#!/usr/bin/env python3
"""Reachability census: no function in ``src/repro`` that only tests reach.

Usage::

    python tools/reach.py

Runs every entry point a user or CI drives, in this one process, under
``sys.setprofile``, and records each code object entered.  The entry
points are:

* the 28 scenarios at smoke parameters, one ``repro.bench run --group G
  --smoke`` per group (CI's adversarial step selects by group);
* ``repro.bench run core --smoke --set n=128 --seed 7``, the override
  form docs/benchmarks.md documents;
* a traced storage run (``--trace-out``) and the six ``repro.obs``
  subcommands CI runs on its store;
* ``repro.bench list`` and ``repro.bench report``;
* ``repro.lint src``;
* two calls that must fail, each for its error path: ``repro.bench run``
  with an unknown scenario name (the known-name list) and ``repro.lint``
  over a file with a forbidden relative import (RPR201); either one
  fails the census if its error does not occur;
* a smoke ``Cluster`` with jobs mid-run, forked by ``copy.deepcopy`` and
  by a ``pickle`` round trip, each fork run to the original's results;
* the examples in ``examples/``, each through ``runpy``;
* the five ``benchmarks/perf`` workloads at smoke size, one round each
  untraced and traced (a traced round's ``cProfile`` replaces this
  census's hook for its measured phase, and the hook is put back after
  the round; the untraced round covers that phase).

It then compares what ran with every ``def`` under ``src/repro``.  A
code object and its ``def`` are matched on ``(file, co_firstlineno,
co_name)``; for a decorated ``def`` the first line is that of its first
decorator.  Every unreached function must be named in
``tools/reach_allowlist.txt``, one ``path:qualname  # kind: reason`` per
line: ``path`` is relative to ``src/repro``, a qualname shared by
several ``def``s (a property and its setter) names all of them, and
``kind`` is one of :data:`KINDS`.  An entry whose functions are all
reached, or whose function no longer exists, is stale, so the list can
only shrink.

Exit code 0 when every unreached function is listed and no entry is
stale; 1 otherwise, with one line per finding: also when an entry point
fails or leaves the hook uninstalled, or the allowlist is malformed.
Stdlib only; the entry points themselves need NumPy, as the package does.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import importlib
import io
import os
import pickle
import runpy
import sys
import tempfile
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
PERF = os.path.join(ROOT, "benchmarks", "perf")
ALLOWLIST = os.path.join(ROOT, "tools", "reach_allowlist.txt")

PERF_WORKLOADS = ("lookup_steady", "lookup_observed", "churn_repair",
                  "storage_rw", "grid_jobs")
#: Why an unreached function may stay; an allowlist reason starts with one.
#: A kind leaves this tuple once its last entry is gone, so it cannot regrow
#: (test oracles, once a ``reference`` kind, live in ``tests/``).
KINDS = ("join", "handler", "lifecycle", "api")
OBS_QUERIES = (["summary"], ["runs"], ["timeline", "--limit", "20"],
               ["slowest"], ["critpath"])

#: ``(path relative to the census root, first line, name)``: a code
#: object's key, the same for a ``def`` and the code it compiles to.
Site = Tuple[str, int, str]


class Def:
    """One ``def`` statement: where it is, its qualname and its length."""

    __slots__ = ("path", "line", "qualname", "lines")

    def __init__(self, path: str, line: int, qualname: str, lines: int) -> None:
        self.path, self.line, self.qualname, self.lines = path, line, qualname, lines

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"

    @property
    def site(self) -> Site:
        return self.path, self.line, self.qualname.rpartition(".")[2]


def defs_in(root: str) -> List[Def]:
    """Every ``def`` in the ``*.py`` files under *root*, in file order."""
    found: List[Def] = []
    for folder, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            _collect(tree, "", rel, found)
    return found


def _collect(node: ast.AST, prefix: str, rel: str, out: List[Def]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            out.append(Def(rel, first, qualname, child.end_lineno - first + 1))
            _collect(child, qualname + ".<locals>.", rel, out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, prefix + child.name + ".", rel, out)
        else:
            _collect(child, prefix, rel, out)


def record(entry_points: Iterable[Tuple[str, Callable[[], object]]],
           root: str) -> Tuple[Set[Site], List[str]]:
    """Run each ``(label, call)`` under a profile hook.

    Returns the sites entered under *root* and one line per entry point
    that raised, returned a non-zero exit code or did not leave the hook
    installed (what it ran after that would read as unreached).
    """
    entered: Set[object] = set()

    def hook(frame, event, _arg) -> None:
        if event == "call":
            entered.add(frame.f_code)

    failures: List[str] = []
    for label, call in entry_points:
        sys.setprofile(hook)
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # reported below; the census then fails
            code = f"{type(exc).__name__}: {exc}"
        finally:
            kept = sys.getprofile() is hook
            sys.setprofile(None)
        if code not in (0, None):
            failures.append(f"entry point {label} failed: {code}")
        elif not kept:
            failures.append(f"entry point {label} dropped the profile hook")

    base = os.path.realpath(root) + os.sep
    sites: Set[Site] = set()
    for code_obj in entered:
        path = os.path.realpath(code_obj.co_filename)
        if path.startswith(base):
            rel = path[len(base):].replace(os.sep, "/")
            sites.add((rel, code_obj.co_firstlineno, code_obj.co_name))
    return sites, failures


def read_allowlist(lines: Iterable[str]) -> Tuple[Dict[str, str], List[str]]:
    """``({path:qualname: reason}, malformed-line messages)``; ``#`` lines
    and blank lines are skipped."""
    entries: Dict[str, str] = {}
    errors: List[str] = []
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = (part.strip() for part in line.partition("#"))
        kind, _, why = reason.partition(":")
        if ":" not in key or kind not in KINDS or not why.strip():
            errors.append(f"allowlist line {number}: expected "
                          f"'path:qualname  # kind: reason' with a kind in "
                          f"{KINDS}, got {line!r}")
        elif key in entries:
            errors.append(f"allowlist line {number}: {key} listed twice")
        else:
            entries[key] = reason
    return entries, errors


def census(defs: Sequence[Def], reached: Set[Site],
           allowed: Dict[str, str]) -> List[str]:
    """One line per unreached, unlisted function and per stale entry."""
    findings: List[str] = []
    unreached_keys: Set[str] = set()
    known: Set[str] = set()
    for d in defs:
        known.add(d.key)
        if d.site in reached:
            continue
        unreached_keys.add(d.key)
        if d.key not in allowed:
            findings.append(f"{d.path}:{d.line}: {d.qualname} ({d.lines} lines) "
                            "is not reached by any entry point")
    for key in allowed:
        if key not in known:
            findings.append(f"stale allowlist entry {key}: no such function")
        elif key not in unreached_keys:
            findings.append(f"stale allowlist entry {key}: now reached")
    return findings


@contextlib.contextmanager
def _quiet():
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        yield


def _run_script(path: str) -> int:
    runpy.run_path(path, run_name="__main__")
    return 0


def _main(module: str) -> Callable[..., object]:
    """*module*'s ``main``, imported on first use so that import-time calls
    run under the hook too."""
    return importlib.import_module(module).main


def _traced_round(workload: str) -> object:
    """A traced perf round; its ``cProfile`` takes the profile hook over
    for the measured phase, so the census's hook is put back after it."""
    hook = sys.getprofile()
    try:
        return _main("perf_round")(["--workload", workload, "--seed", "1",
                                    "--smoke", "1", "--trace", "1"])
    finally:
        sys.setprofile(hook)


def _bench_groups(tmp: str) -> int:
    """``repro.bench run --group G --smoke`` for every group: all the
    scenarios once, through the selector CI's adversarial step uses."""
    from repro.bench.scenario import GROUPS

    bench = _main("repro.bench.cli")
    return max(bench(["run", "--group", g, "--smoke", "--quiet", "--out", tmp])
               for g in GROUPS)


def _bench_unknown_name() -> object:
    """``repro.bench run`` with a name no scenario has: 0 when it fails
    with the known-name list, a failure line otherwise, so this entry
    point cannot silently stop taking its error path."""
    try:
        code = _main("repro.bench.cli")(["run", "no-such-scenario", "--no-write"])
    except KeyError as exc:
        if "known: [" in str(exc):
            return 0
        code = f"KeyError: {exc}"
    return f"expected the known-name list, got {code!r}"


def _lint_relative_import(tmp: str) -> object:
    """``repro.lint`` over a ``repro/core`` file that imports storage by a
    relative import: 0 when it exits 1 with the RPR201 naming the resolved
    module, a failure line otherwise."""
    root = os.path.join(tmp, "lint-relative")
    bad = os.path.join(root, "src", "repro", "core", "bad.py")
    os.makedirs(os.path.dirname(bad))
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("from ..storage import store\n")
    out = io.StringIO()
    code = _main("repro.lint.cli")([bad, "--project-root", root], stream=out)
    text = out.getvalue()
    if code == 1 and "RPR201" in text and "(module repro.storage)" in text:
        return 0
    return f"expected an RPR201 on the relative import, got {code!r}: {text!r}"


def _fork_cluster() -> object:
    """Fork a smoke cluster with jobs mid-run, by ``copy.deepcopy`` and by
    a ``pickle`` round trip (docs/api.md), and run all three on: 0 when
    each fork finishes the jobs as the original does, a failure line
    otherwise."""
    from repro import Cluster, JobSpec

    cluster = Cluster(seed=7).build(64).with_compute()
    for job_id in range(1, 6):
        cluster.compute.submit(JobSpec(job_id=job_id, cpu_demand=1.0, work=30.0))
    cluster.net.sim.run_for(12.0)
    runs = [cluster, copy.deepcopy(cluster), pickle.loads(pickle.dumps(cluster))]
    results = [(run.compute.run_until_done(120.0), run.compute.results)
               for run in runs]
    if results[0][0] and results.count(results[0]) == len(results):
        return 0
    return f"a fork finished otherwise than its original: {results!r}"


def entry_points(tmp: str) -> List[Tuple[str, Callable[[], object]]]:
    """The non-test ways into the package, as ``(label, call)`` pairs."""
    trace = os.path.join(tmp, "trace_storage.smoke.npz")
    points: List[Tuple[str, Callable[[], object]]] = [
        ("bench run --group G --smoke", lambda: _bench_groups(tmp)),
        ("bench run core --set", lambda: _main("repro.bench.cli")(
            ["run", "core", "--smoke", "--quiet", "--set", "n=128", "--seed", "7",
             "--no-write"])),
        ("bench run storage --trace-out", lambda: _main("repro.bench.cli")(
            ["run", "storage", "--smoke", "--quiet", "--out", tmp, "--trace-out", tmp])),
    ]
    points += [(f"obs {args[0]}",
                lambda args=args: _main("repro.obs.cli")([args[0], trace] + args[1:]))
               for args in OBS_QUERIES]
    points += [
        ("obs export", lambda: _main("repro.obs.cli")(
            ["export", trace, "--stream", "events", "--format", "csv",
             "-o", os.path.join(tmp, "events.csv")])),
        ("bench list", lambda: _main("repro.bench.cli")(["list"])),
        ("bench report", lambda: _main("repro.bench.cli")(["report"])),
        ("lint src", lambda: _main("repro.lint.cli")(["src"])),
        ("bench run <unknown name>", _bench_unknown_name),
        ("lint a forbidden relative import", lambda: _lint_relative_import(tmp)),
        ("fork a cluster mid-run", _fork_cluster),
    ]
    examples = os.path.join(ROOT, "examples")
    points += [(f"examples/{name}",
                lambda path=os.path.join(examples, name): _run_script(path))
               for name in sorted(os.listdir(examples)) if name.endswith(".py")]
    for w in PERF_WORKLOADS:
        points += [(f"perf {w} --trace 0", lambda w=w: _main("perf_round")(
                        ["--workload", w, "--seed", "1", "--smoke", "1", "--trace", "0"])),
                   (f"perf {w} --trace 1", lambda w=w: _traced_round(w))]
    return points


def main() -> int:
    sys.path[:0] = [SRC, PERF]
    os.chdir(ROOT)
    with open(ALLOWLIST, encoding="utf-8") as fh:
        allowed, findings = read_allowlist(fh)
    with tempfile.TemporaryDirectory() as tmp, _quiet():
        reached, failures = record(entry_points(tmp), PACKAGE)
    defs = defs_in(PACKAGE)
    findings += failures + census(defs, reached, allowed)
    for line in findings:
        print(line)
    unreached = [d for d in defs if d.site not in reached]
    kinds = [reason.partition(":")[0] for reason in allowed.values()]
    ledger = ", ".join(f"{kind} {kinds.count(kind)}" for kind in KINDS)
    print(f"reach: {len(defs)} functions, {len(unreached)} unreached "
          f"({sum(d.lines for d in unreached)} lines), {len(allowed)} allowlisted "
          f"({ledger}), {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
