"""Satellite: cross-process determinism of campaign repetitions.

A campaign worker is a *spawned* fresh interpreter — no inherited RNG
state, no import-order luck.  This pins the acceptance property: the
same (scenario, seed, params) run in-process and inside a spawned
campaign worker produces the **same envelope**, and the aggregate is the
same bytes however many workers computed it.  ``scale_lookup --smoke`` is
the subject, per the issue; a serial same-process campaign is pinned too,
so a failure isolates to the process boundary rather than the aggregator.
"""

import pytest

import repro.bench.scenarios  # noqa: F401  (populates the registry)
from repro.bench import parse_campaign, run_campaign, run_scenario

SPEC = {"campaign": {"name": "det", "scenario": "scale_lookup",
                     "seeds": [42]}}


@pytest.fixture(scope="module")
def in_process_envelope():
    return run_scenario("scale_lookup", seed=42, smoke=True).to_dict()


def _campaign_repetition(workers):
    campaign = run_campaign(parse_campaign(SPEC), smoke=True,
                            workers=workers)
    (point,) = campaign.points
    (rep,) = point["repetitions"]
    assert rep["seed"] == 42 and rep["smoke"] is True
    return rep


def test_spawned_worker_matches_in_process_run(in_process_envelope):
    """The acceptance property: the per-repetition envelope coming back
    from a spawn worker equals a single-process ``run_scenario`` at the
    same seed."""
    spawned = _campaign_repetition(workers=2)
    assert spawned == in_process_envelope
    assert spawned["metrics"] and spawned["checks"]
    assert spawned["scenario"] == "scale_lookup"


def test_serial_campaign_matches_in_process_run(in_process_envelope):
    # control arm: same property without the process boundary
    assert _campaign_repetition(workers=1) == in_process_envelope


def test_campaign_envelope_is_identical_for_one_and_two_workers():
    """Two seeds so two spawn workers really run side by side; the
    envelope records what was computed, not how."""
    spec = parse_campaign({"campaign": {
        "name": "det2", "scenario": "core", "seeds": [42, 43]}})
    serial = run_campaign(spec, smoke=True, workers=1)
    fanned = run_campaign(spec, smoke=True, workers=2)
    assert fanned.to_json() == serial.to_json()
