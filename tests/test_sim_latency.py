"""Unit tests for latency models."""

import numpy as np
import pytest

from repro.sim.latency import ConstantLatency, UniformLatency


def test_constant_returns_value():
    m = ConstantLatency(0.02)
    assert m.sample(1, 2) == 0.02
    assert m.expected() == 0.02


def test_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstantLatency(0.0)


def test_uniform_within_bounds():
    m = UniformLatency(np.random.default_rng(0), low=0.01, high=0.05)
    samples = [m.sample(0, 1) for _ in range(500)]
    assert all(0.01 <= s <= 0.05 for s in samples)
    assert m.expected() == pytest.approx(0.03)


def test_uniform_rejects_bad_bounds():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        UniformLatency(rng, low=0.0, high=0.05)
    with pytest.raises(ValueError):
        UniformLatency(rng, low=0.05, high=0.01)


def test_reprs_are_informative():
    rng = np.random.default_rng(0)
    assert "0.01" in repr(ConstantLatency(0.01))
    assert "Uniform" in repr(UniformLatency(rng))


# ------------------------------------------- expected() contract (abstract)

def _latency_models():
    """Every shipped concrete LatencyModel, constructed with defaults."""
    from repro.sim.conditions import StragglerLatency
    return [
        ConstantLatency(0.01),
        UniformLatency(np.random.default_rng(0)),
        StragglerLatency(ConstantLatency(0.01), {1}, 2.0),
    ]


def test_every_shipped_model_implements_expected():
    """expected() is abstract on purpose: timeout sizing calls it for
    every model, so each shipped subclass must answer with a positive
    finite scalar."""
    import repro.sim as sim_pkg
    from repro.sim.latency import LatencyModel

    models = _latency_models()
    shipped = {type(m).__name__ for m in models}
    exported = {name for name in sim_pkg.__all__
                if isinstance(getattr(sim_pkg, name), type)
                and issubclass(getattr(sim_pkg, name), LatencyModel)
                and getattr(sim_pkg, name) is not LatencyModel}
    assert exported <= shipped, f"model(s) missing from the registry: " \
        f"{sorted(exported - shipped)}"
    for m in models:
        e = m.expected()
        assert np.isfinite(e) and e > 0, f"{type(m).__name__}.expected()"


def test_expected_consistent_with_samples():
    for m in _latency_models():
        samples = [m.sample(1, 2) for _ in range(2000)]
        assert np.mean(samples) <= 5 * m.expected()


def test_latency_model_without_expected_cannot_instantiate():
    from repro.sim.latency import LatencyModel

    class Partial(LatencyModel):
        def sample(self, src, dst):
            return 0.01

    with pytest.raises(TypeError, match="expected"):
        Partial()


def test_latency_model_without_sample_cannot_instantiate():
    from repro.sim.latency import LatencyModel

    class Partial(LatencyModel):
        def expected(self):
            return 0.01

    with pytest.raises(TypeError, match="sample"):
        Partial()
