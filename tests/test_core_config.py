"""Unit tests for TreePConfig."""

import pytest

from repro.core.config import TreePConfig


def test_defaults_are_paper_case1():
    c = TreePConfig.paper_case1()
    assert c.nc_mode == "fixed" and c.nc_fixed == 4
    assert c.ttl_max == 255


def test_case2_is_variable():
    assert TreePConfig.paper_case2().nc_mode == "variable"


def test_preset_overrides():
    c = TreePConfig.paper_case1(ttl_max=100)
    assert c.ttl_max == 100


def test_frozen():
    c = TreePConfig()
    with pytest.raises(Exception):
        c.nc_fixed = 10  # type: ignore[misc]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(nc_fixed=1),
        dict(max_height=0),
        dict(ttl_max=0),
        dict(ttl_max=300),
        dict(keepalive_interval=0),
        dict(entry_ttl=-1),
        dict(demotion_base=0),
        # ``nan <= 0`` is False: each check must still reject NaN.
        dict(nc_fixed=float("nan")),
        dict(max_height=float("nan")),
        dict(keepalive_interval=float("nan")),
        dict(entry_ttl=float("nan")),
        dict(demotion_base=float("nan")),
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        TreePConfig(**kwargs)


def test_demotion_policy_values():
    assert TreePConfig(demotion_policy="strict").demotion_policy == "strict"
    assert TreePConfig(demotion_policy="keep-upper").demotion_policy == "keep-upper"
