"""pytest-benchmark entry point: every registered ``repro.bench`` scenario.

One test, parametrised over the registry (ids are the scenario names, so
``pytest benchmarks/bench_scenarios.py -k storage`` runs the storage
scenario and ``-k figure_`` the nine §IV figures).  The measurement logic,
parameter grids, metric schemas and invariant checks all live in
``src/repro/bench/scenarios/``; a pytest run executes the identical code
path as ``python -m repro.bench run <name>``, prints the regenerated
figure/table (so the bench log still doubles as the results record), and
writes the same ``benchmarks/out/bench_<name>.json`` envelope the CLI
emits — pytest runs and CLI runs feed one perf trajectory.

The two underlying figure sweeps (case 1 / case 2) are memoised per
process: the first figure scenario touching a case pays for its sweep,
the rest measure only extraction + rendering.
"""

import os

import pytest

from repro.bench import pytest_scenario, registry

#: Where every bench run (pytest or CLI) drops its BenchResult envelope.
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


@pytest.mark.parametrize("name", registry.names())
def test_scenario(benchmark, name):
    pytest_scenario(benchmark, name, OUT_DIR)
