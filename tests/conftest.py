"""Shared fixtures: small prebuilt networks, deterministic RNG."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro import TreePConfig, TreePNetwork


@pytest.fixture(scope="module")
def small_net() -> TreePNetwork:
    """A 64-node case-1 network shared by read-only tests."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=7)
    net.build(64)
    return net


@pytest.fixture()
def fresh_net() -> TreePNetwork:
    """A private 64-node network for tests that mutate state."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=7)
    net.build(64)
    return net


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def collector_state():
    """Hand the test runner's collector setting back whatever the test did."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()
