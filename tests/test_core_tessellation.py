"""Unit + property tests for 1-D tessellation math."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import bus_neighbours
from repro.core.ids import IdSpace
from repro.core.tessellation import cell_owner, cells_of_bus, children_of

SPACE = IdSpace(extent=1000)


def test_single_node_owns_everything():
    cells = cells_of_bus(SPACE, [500])
    assert len(cells) == 1
    assert cells[0].lo == 0 and cells[0].hi == 1000
    assert cells[0].lo <= 0 and 999 < cells[0].hi


def test_cells_partition_space():
    cells = cells_of_bus(SPACE, [100, 300, 800])
    assert cells[0].lo == 0
    assert cells[-1].hi == 1000
    for left, right in zip(cells, cells[1:]):
        assert left.hi == right.lo


def test_cell_width():
    cells = cells_of_bus(SPACE, [100, 300, 800])
    assert [c.hi - c.lo for c in cells] == [201, 350, 449]
    assert sum(c.hi - c.lo for c in cells) == SPACE.extent


def test_boundaries_at_midpoints():
    cells = cells_of_bus(SPACE, [100, 300])
    assert cells[0].hi == 201  # midpoint 200 belongs to the left cell
    assert cells[0].lo <= 200 < cells[0].hi and cells[1].lo <= 201 < cells[1].hi


def test_unsorted_bus_rejected():
    with pytest.raises(ValueError, match="sorted"):
        cells_of_bus(SPACE, [300, 100])


def test_duplicate_bus_rejected():
    with pytest.raises(ValueError):
        cells_of_bus(SPACE, [100, 100])


def test_empty_bus_rejected():
    with pytest.raises(ValueError):
        cells_of_bus(SPACE, [])


def test_cell_owner_matches_cells():
    bus = [100, 300, 800]
    cells = cells_of_bus(SPACE, bus)
    for ident in range(0, 1000, 7):
        owner = cell_owner(SPACE, bus, ident)
        containing = next(c for c in cells if c.lo <= ident < c.hi)
        assert owner == containing.owner


def test_cell_owner_is_nearest():
    bus = [100, 300, 800]
    assert cell_owner(SPACE, bus, 0) == 100
    assert cell_owner(SPACE, bus, 250) == 300
    assert cell_owner(SPACE, bus, 999) == 800


def test_bus_neighbours():
    bus = [10, 20, 30]
    assert bus_neighbours(bus, 10) == (None, 20)
    assert bus_neighbours(bus, 20) == (10, 30)
    assert bus_neighbours(bus, 30) == (20, None)


def test_bus_neighbours_missing_raises():
    with pytest.raises(ValueError):
        bus_neighbours([10, 20], 15)


def test_children_of_assigns_every_lower_node():
    bus = [100, 500, 900]
    lower = [50, 150, 290, 310, 490, 510, 700, 950]
    result = children_of(SPACE, bus, lower)
    assigned = [c for kids in result.values() for c in kids]
    assert sorted(assigned) == lower
    assert set(result) == set(bus)


def test_children_of_respects_cells():
    bus = [100, 500, 900]
    result = children_of(SPACE, bus, [290, 310])
    assert 290 in result[100]  # 290 <= midpoint(100,500)=300
    assert 310 in result[500]


def test_children_of_requires_sorted_lower():
    with pytest.raises(ValueError, match="sorted"):
        children_of(SPACE, [100], [5, 3])


@st.composite
def bus_strategy(draw):
    n = draw(st.integers(1, 30))
    ids = draw(st.lists(st.integers(0, 999), min_size=n, max_size=n, unique=True))
    return sorted(ids)


@given(bus=bus_strategy())
@settings(max_examples=100, deadline=None)
def test_property_cells_partition_exactly(bus):
    """Cells tile [0, extent) with no gaps and no overlaps."""
    cells = cells_of_bus(SPACE, bus)
    assert cells[0].lo == 0
    assert cells[-1].hi == SPACE.extent
    for a, b in zip(cells, cells[1:]):
        assert a.hi == b.lo
    # Each owner is inside its own cell.
    for c in cells:
        assert c.lo <= c.owner < c.hi


@given(bus=bus_strategy(), ident=st.integers(0, 999))
@settings(max_examples=150, deadline=None)
def test_property_owner_is_closest(bus, ident):
    """cell_owner returns a nearest bus node (ties allowed)."""
    owner = cell_owner(SPACE, bus, ident)
    best = min(abs(b - ident) for b in bus)
    assert abs(owner - ident) == best


@given(bus=bus_strategy())
@settings(max_examples=50, deadline=None)
def test_property_children_partition(bus):
    lower = list(range(0, 1000, 13))
    result = children_of(SPACE, bus, lower)
    got = sorted(c for kids in result.values() for c in kids)
    assert got == lower
