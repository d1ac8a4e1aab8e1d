"""Unit tests for latency models."""

import numpy as np
import pytest

from repro.sim.latency import ConstantLatency, UniformLatency


def test_constant_returns_value():
    m = ConstantLatency(0.02)
    assert m.sample(1, 2) == 0.02


def test_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstantLatency(0.0)
    with pytest.raises(ValueError):
        ConstantLatency(float("nan"))


def test_uniform_within_bounds():
    m = UniformLatency(np.random.default_rng(0), low=0.01, high=0.05)
    samples = [m.sample(0, 1) for _ in range(500)]
    assert all(0.01 <= s <= 0.05 for s in samples)


def test_uniform_rejects_bad_bounds():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        UniformLatency(rng, low=0.0, high=0.05)
    with pytest.raises(ValueError):
        UniformLatency(rng, low=0.05, high=0.01)


def test_latency_model_without_sample_cannot_instantiate():
    from repro.sim.latency import LatencyModel

    class Partial(LatencyModel):
        pass

    with pytest.raises(TypeError, match="sample"):
        Partial()
