"""Scenario definitions — importing this package populates the registry.

One module per family:

* :mod:`repro.bench.scenarios.figures` — the nine §IV figure sweeps;
* :mod:`repro.bench.scenarios.ablation` — the four §VI design probes;
* :mod:`repro.bench.scenarios.systems` — engineering benches for the
  overlay core, table-size bounds, NGSA cost, baselines, storage and
  compute subsystems;
* :mod:`repro.bench.scenarios.scale` — the 10k-node scalability sweeps
  (hops vs log N, success, events per measured phase);
* :mod:`repro.bench.scenarios.adversarial` — chaos benches (partitions,
  rack failures, stragglers, loss bursts) with survival-invariant
  checks.
"""

from repro.bench.scenarios import ablation as _ablation  # noqa: F401
from repro.bench.scenarios import adversarial as _adversarial  # noqa: F401
from repro.bench.scenarios import figures as _figures  # noqa: F401
from repro.bench.scenarios import scale as _scale  # noqa: F401
from repro.bench.scenarios import systems as _systems  # noqa: F401
