"""The tessellation-aware distance ``D(a, b)`` of §III.f.

The paper defines (transcribing the displayed formula):

* if ``lvl_a = 0``:            ``D(a, b) = d(a, b)``
* if ``d(a, b) - L / 2**(h - lvl_a) <= 0``:  ``D(a, b) = 0``
* otherwise:                   ``D(a, b) = d(a, b) - L / 2**(h - lvl_a)``

where ``d`` is the Euclidean metric of the ID space, ``L`` the extent of the
space, ``h`` the height of the hierarchy, and ``lvl_a`` the maximum level of
node *a*.  Interpretation: a node at level ``lvl_a`` owns a tessellation
cell of characteristic radius ``L / 2**(h - lvl_a)``; any target inside that
radius is "at distance zero" (the node can resolve it inside its subtree),
and beyond it only the excess distance counts.  High-level nodes therefore
look *close* to everything, which is what lets the greedy rule
"forward when ``D(n, x) <= D(a, x) / 2``" (Fig. 3) escalate through parents
in logarithmically many steps.

The greedy router's halving criterion lives here too.  NG/NGSA's progress
test — the Euclidean distance to the target strictly decreases — and the
TTL-triggered Euclidean fallback are inline in :mod:`repro.core.lookup`.
"""

from __future__ import annotations

from repro.core.ids import IdSpace


def cell_radius(space: IdSpace, height: int, level: int) -> float:
    """Characteristic tessellation radius of a level-*level* node.

    ``L / 2**(h - level)`` — grows with the level: the root's cell is half
    the space, a level-1 node's cell is ``L / 2**(h-1)``.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    exponent = max(height - level, 0)
    return space.extent / float(2**exponent)


def treep_distance(
    space: IdSpace,
    a_id: int,
    a_level: int,
    b_id: int,
    height: int,
) -> float:
    """``D(a, b)`` exactly as §III.f (see module docstring).

    Parameters
    ----------
    space:
        The ID space (provides ``d`` and ``L``).
    a_id / a_level:
        Position and *maximum* level of the evaluating node ``a``.
    b_id:
        Position of the target ``b``.
    height:
        Current height ``h`` of the hierarchy.
    """
    d = float(space.distance(a_id, b_id))
    if a_level <= 0:
        return d
    radius = cell_radius(space, height, a_level)
    if d <= radius:
        return 0.0
    return d - radius


def halving_criterion(d_next: float, d_here: float) -> bool:
    """Fig. 3's forwarding test: ``D(n, x) <= D(a, x) / 2``."""
    return d_next <= 0.5 * d_here
