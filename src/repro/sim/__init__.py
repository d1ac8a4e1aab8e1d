"""Discrete-event simulation substrate for the TreeP reproduction.

This package provides everything the overlay protocols need to run as a
*packet-switched* simulation with purely local routing decisions (the setting
the paper's evaluation uses):

* :mod:`repro.sim.engine` — a heap-based discrete-event kernel
  (:class:`~repro.sim.engine.Simulator`).
* :mod:`repro.sim.events` — event records and the priority queue.
* :mod:`repro.sim.network` — a UDP-like lossy datagram network connecting
  simulated processes by address.
* :mod:`repro.sim.latency` — pluggable per-link latency models.
* :mod:`repro.sim.rng` — named, seeded random substreams so every experiment
  is reproducible bit-for-bit.
* :mod:`repro.sim.failures` — the paper's 5%-step random-disconnect schedule.
* :mod:`repro.sim.conditions` — adversarial conditions: Gilbert-Elliott
  burst loss, healing partitions, straggler slowdowns.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.network import Datagram, Network, Process
from repro.sim.rng import RngRegistry
from repro.sim.failures import FailureSchedule
from repro.sim.conditions import (
    GilbertElliott,
    NetworkConditions,
    Partition,
    StragglerLatency,
)

__all__ = [
    "Datagram",
    "Event",
    "EventQueue",
    "FailureSchedule",
    "GilbertElliott",
    "LatencyModel",
    "Network",
    "NetworkConditions",
    "Partition",
    "Process",
    "RngRegistry",
    "Simulator",
    "StragglerLatency",
    "UniformLatency",
]
