"""Unit tests for named RNG substreams."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry


def test_same_seed_same_streams():
    a, b = RngRegistry(42), RngRegistry(42)
    assert float(a.get("x").random()) == float(b.get("x").random())


def test_different_names_differ():
    r = RngRegistry(42)
    assert float(r.get("a").random()) != float(r.get("b").random())


def test_different_seeds_differ():
    assert float(RngRegistry(1).get("x").random()) != float(
        RngRegistry(2).get("x").random()
    )


def test_stream_is_stateful_and_cached():
    r = RngRegistry(0)
    g1 = r.get("s")
    v1 = float(g1.random())
    g2 = r.get("s")
    assert g1 is g2
    assert float(g2.random()) != v1  # sequential draws, not a reset


def test_isolation_between_streams():
    """Drawing from one stream never perturbs another."""
    r1, r2 = RngRegistry(5), RngRegistry(5)
    r1.get("noise").random(1000)  # extra draws on an unrelated stream
    assert float(r1.get("signal").random()) == float(r2.get("signal").random())


def test_non_int_seed_rejected():
    with pytest.raises(TypeError):
        RngRegistry("abc")  # type: ignore[arg-type]


def test_numpy_integer_seed_accepted():
    r = RngRegistry(np.int64(7))
    assert r.seed == 7
