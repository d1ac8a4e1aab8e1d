"""The replicated store against a sequential last-write-wins register.

A Hypothesis state machine interleaves quorum PUTs and GETs from two
client origins with the adversity that makes remembered coordinators go
stale: the key's coordinator crashing, random crashes, converged table
repair, and protocol joins right next to a key.  The reference model is
one register per key, as in ``benchmarks/perf``'s ``storage_rw`` oracle:

* a GET that finds a value returns the last acknowledged PUT of its key,
  or the value of a PUT issued since then that was never acknowledged
  (sloppy quorum: a write that missed W is reported, never rolled back);
* while every crash so far has been healed and a live replica still holds
  the acknowledged value, the GET must find it.

Crashes never take the last live holder of an acknowledged value — beyond
that point a miss is data loss, not a protocol error.  Tier-1 runs the
machine derandomised (the repo's tests are deterministic per seed); widen
``max_examples`` / drop ``derandomize`` locally to explore.
"""

import itertools

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro import Cluster, QuorumConfig, TreePConfig
from repro.core.repair import FULL_POLICY, apply_failure_step

N_NODES = 64
KEYS = [f"reg/{i}" for i in range(6)]
MAX_CRASHES = N_NODES // 3

keys = st.sampled_from(KEYS)
clients = st.integers(0, 1)


class LwwRegisterMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        cluster = Cluster(config=TreePConfig.paper_case1(), seed=11).build(
            N_NODES).with_storage(QuorumConfig(n=3, w=2, r=2))
        self.net = cluster.net
        self.store = cluster.storage
        self.clients = (self.net.ids[0], self.net.ids[N_NODES // 2])
        self.values = itertools.count()
        self.acked = {}    # key -> value of the last acknowledged PUT
        self.maybe = {}    # key -> values of unacknowledged PUTs since then
        self.unhealed = []
        self.crashes = 0

    # --------------------------------------------------------------- helpers
    def _live_holders(self, key):
        """Live peers whose copy of *key* is the acknowledged value."""
        key_id = self.store.key_id(key)
        up = self.net.network.is_up
        return [i for i, agent in self.store.agents.items()
                if up(i) and (vv := agent.store.get(key_id)) is not None
                and vv.value == self.acked[key]]

    def _crash(self, victim) -> None:
        if victim in self.clients or self.crashes >= MAX_CRASHES:
            return
        if any(self._live_holders(k) == [victim] for k in self.acked):
            return  # would lose an acknowledged write outright
        self.net.fail_nodes([victim])
        self.unhealed.append(victim)
        self.crashes += 1

    # ----------------------------------------------------------------- rules
    @rule(key=keys, client=clients)
    def put(self, key, client):
        value = next(self.values)
        if self.store.put(key, value, via=self.clients[client]).ok:
            self.acked[key] = value
            self.maybe.pop(key, None)
        else:
            self.maybe.setdefault(key, set()).add(value)

    @rule(key=keys, client=clients)
    def get(self, key, client):
        result = self.store.get(key, via=self.clients[client])
        if result.found:
            assert (key in self.acked and result.value == self.acked[key]
                    or result.value in self.maybe.get(key, ())), (
                f"GET {key} returned {result.value!r}; last acked "
                f"{self.acked.get(key)!r}, unacked {self.maybe.get(key)}")
        elif key in self.acked and not self.unhealed:
            assert not self._live_holders(key), (
                f"GET {key} missed on a healed overlay while "
                f"{self._live_holders(key)} hold the acked value")

    @rule(key=keys)
    def crash_coordinator(self, key):
        key_id = self.store.key_id(key)
        space = self.net.config.space
        self._crash(min(self.net.alive_ids(),
                        key=lambda i: space.distance(i, key_id)))

    @rule(pick=st.integers(0, N_NODES - 1))
    def crash_random(self, pick):
        alive = self.net.alive_ids()
        self._crash(alive[pick % len(alive)])

    @precondition(lambda self: self.unhealed)
    @rule()
    def heal(self):
        apply_failure_step(self.net, self.unhealed, FULL_POLICY)
        self.unhealed = []

    @rule(key=keys, offset=st.integers(-3, 3).filter(bool))
    def join_next_to_key(self, key, offset):
        ident = self.store.key_id(key) + offset
        if ident not in self.net.nodes:
            self.net.join_new_node(ident)
            self.net.sim.run_for(5.0)


TestLwwRegister = LwwRegisterMachine.TestCase
TestLwwRegister.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None, derandomize=True)
