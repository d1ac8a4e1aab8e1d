"""The protocol-mode event census: how many keep-alive ticks, election and
demotion countdowns fire, and how many protocol datagrams go out, over
every run of the two smoke scenarios that drive keep-alives, elections and
demotions.  A change to the node's protocol code that keeps these counts
exact kept the protocol's behaviour; one that moves any count did not."""

import pytest

from repro.bench import run_scenario
from repro.obs.runtime import capture

#: Per-node timer labels counted by their prefix (``keepalive:<id>``,
#: ``election:<id>:<lvl>``, ``demotion:<id>:<lvl>``); the protocol's
#: datagram labels (``dgram:<Type>``) are counted exactly.
TIMERS = ("keepalive", "election", "demotion")

CENSUS = {
    "ablation_demotion": {
        "keepalive:*": 6430, "election:*": 57, "demotion:*": 78,
        "dgram:KeepAlive": 16090, "dgram:KeepAliveAck": 15570,
        "dgram:ChildReport": 3661, "dgram:ParentAnnounce": 3292,
        "dgram:ElectionStart": 40, "dgram:ParentClaim": 68,
        "dgram:Demote": 68,
    },
    "ablation_maintenance": {
        "keepalive:*": 1498, "election:*": 39, "demotion:*": 32,
        "dgram:KeepAlive": 5643, "dgram:KeepAliveAck": 5632,
        "dgram:ChildReport": 1448, "dgram:ParentAnnounce": 1424,
        "dgram:ElectionStart": 32, "dgram:ParentClaim": 48,
        "dgram:Demote": 83,
    },
}


def census(name):
    """Sum the simulator's event-label counts over every run of *name*'s
    smoke scenario."""
    with capture() as cap:
        run_scenario(name, smoke=True)
    counts = {key: 0 for key in CENSUS[name]}
    for hub in cap.hubs:
        for label, n in hub.sim_event_counts.items():
            kind = label.split(":", 1)[0]
            key = f"{kind}:*" if kind in TIMERS else label
            if key in counts:
                counts[key] += n
    return counts


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_protocol_event_census(name):
    assert census(name) == CENSUS[name]

