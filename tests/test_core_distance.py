"""Unit + property tests for the tessellation distance D(a, b) (§III.f)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import cell_radius, halving_criterion, treep_distance
from repro.core.ids import IdSpace

SPACE = IdSpace(extent=2**20)
H = 6


def test_level0_is_euclidean():
    assert treep_distance(SPACE, 100, 0, 500, H) == 400.0


def test_inside_radius_is_zero():
    # level 5 of h=6: radius = L/2.
    r = cell_radius(SPACE, H, 5)
    assert r == SPACE.extent / 2
    assert treep_distance(SPACE, 0, 5, int(r) - 1, H) == 0.0


def test_outside_radius_is_excess():
    r = cell_radius(SPACE, H, 4)  # L/4
    d = treep_distance(SPACE, 0, 4, int(r) + 1000, H)
    assert d == pytest.approx(1000.0, abs=1.0)


def test_radius_grows_with_level():
    radii = [cell_radius(SPACE, H, l) for l in range(H + 1)]
    assert radii == sorted(radii)
    assert radii[-1] == SPACE.extent  # the root sees everything at 0


def test_root_distance_zero_everywhere():
    assert treep_distance(SPACE, 0, H, SPACE.extent - 1, H) == 0.0


def test_level_above_height_clamped():
    # Defensive: level > h treated as radius = full extent.
    assert treep_distance(SPACE, 0, H + 2, SPACE.extent - 1, H) == 0.0


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        cell_radius(SPACE, -1, 0)
    with pytest.raises(ValueError):
        cell_radius(SPACE, 5, -1)


def test_halving_criterion():
    assert halving_criterion(4.0, 10.0)
    assert halving_criterion(5.0, 10.0)
    assert not halving_criterion(5.1, 10.0)
    assert halving_criterion(0.0, 0.0)  # degenerate: only zero halves zero


@given(
    a=st.integers(0, SPACE.extent - 1),
    b=st.integers(0, SPACE.extent - 1),
    lvl=st.integers(0, H),
)
@settings(max_examples=200, deadline=None)
def test_property_D_bounds(a, b, lvl):
    """0 <= D(a,b) <= d(a,b), and D == d exactly at level 0."""
    d = SPACE.distance(a, b)
    D = treep_distance(SPACE, a, lvl, b, H)
    assert 0.0 <= D <= d
    if lvl == 0:
        assert D == d


@given(
    a=st.integers(0, SPACE.extent - 1),
    b=st.integers(0, SPACE.extent - 1),
    l1=st.integers(0, H - 1),
)
@settings(max_examples=200, deadline=None)
def test_property_D_monotone_in_level(a, b, l1):
    """Higher-level nodes are never farther: D at l+1 <= D at l."""
    assert treep_distance(SPACE, a, l1 + 1, b, H) <= treep_distance(SPACE, a, l1, b, H)
