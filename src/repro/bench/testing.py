"""pytest-benchmark glue behind ``benchmarks/bench_scenarios.py``.

That module parametrises one test over the scenario registry and hands
each name to :func:`pytest_scenario`, which runs it through
:func:`repro.bench.runner.run_scenario` (so a pytest bench run writes the
same ``benchmarks/out/bench_<name>.json`` trajectory file as the CLI),
prints the rendered figure/table, and asserts every scenario check.
"""

from __future__ import annotations

from typing import Optional

import repro.bench.scenarios  # noqa: F401  (populates the registry)
from repro.bench.runner import run_scenario


def pytest_scenario(benchmark, name: str, out_dir: Optional[str] = None) -> None:
    """Run scenario *name* once under the pytest-benchmark *benchmark*
    fixture and fail the test on any failed check."""
    result = benchmark.pedantic(run_scenario, args=(name,),
                                kwargs={"out_dir": out_dir},
                                rounds=1, iterations=1)
    print()
    if result.rendered:
        print(result.rendered)
    failed = result.failed_checks()
    assert not failed, (
        f"scenario {name!r} failed checks: "
        + "; ".join(f"{c['name']} ({c.get('detail', '')})" for c in failed))
