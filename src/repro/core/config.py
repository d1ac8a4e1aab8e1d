"""Configuration knobs of a TreeP deployment.

Collected in one frozen dataclass so experiments can describe a whole
configuration declaratively and ablations can vary exactly one field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

from repro.core.ids import IdSpace

NcMode = Literal["fixed", "variable"]
DemotionPolicy = Literal["strict", "keep-upper"]


@dataclass(frozen=True)
class TreePConfig:
    """Everything tunable about a TreeP overlay.

    Not tunable: each node maintains a minimum of two level-0 connections
    (the paper's constant; build and relinking hard-code it).

    Attributes
    ----------
    space:
        The 1-D ID space.
    nc_mode:
        ``fixed`` — every parent accepts at most :attr:`nc_fixed` children
        (paper case 1). ``variable`` — per-node capacity-derived maximum
        (paper case 2).
    nc_fixed:
        The fixed maximum-children value (paper uses 4).
    nc_floor / nc_ceiling:
        Bounds for the variable mode.
    max_height:
        Safety bound on hierarchy height (levels above 0).
    ttl_max:
        Lookup TTL cap (paper: 255).
    keepalive_interval:
        Seconds between keep-alive exchanges on active connections.
    entry_ttl:
        Routing-table entry staleness bound; entries older than this are
        expired lazily (paper §III.c: timestamped entries, deleted on
        expiry).
    election_base:
        Base countdown duration for promotion elections (§III.b).
    demotion_base:
        Base countdown for under-filled parents.
    demotion_policy:
        ``strict`` — paper default: a parent with < 2 children at countdown
        expiry is demoted. ``keep-upper`` — §VI future-work variant: nodes at
        level > 1 keep their status even with no children.
    euclidean_fallback:
        When a request's TTL exceeds the hierarchy height, route on plain
        Euclidean distance (§III.f); disabling this is an ablation.
    lookup_timeout:
        Origin-side timeout after which an unanswered lookup counts failed.
    """

    space: IdSpace = field(default_factory=IdSpace)
    nc_mode: NcMode = "fixed"
    nc_fixed: int = 4
    nc_floor: int = 2
    nc_ceiling: int = 8
    max_height: int = 12
    ttl_max: int = 255
    keepalive_interval: float = 5.0
    entry_ttl: float = 30.0
    election_base: float = 1.0
    demotion_base: float = 5.0
    demotion_policy: DemotionPolicy = "strict"
    euclidean_fallback: bool = True
    lookup_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.nc_fixed < 2:
            raise ValueError(f"nc_fixed must be >= 2, got {self.nc_fixed}")
        if not 2 <= self.nc_floor <= self.nc_ceiling:
            raise ValueError(
                f"need 2 <= nc_floor <= nc_ceiling, got {self.nc_floor}, {self.nc_ceiling}"
            )
        if self.max_height < 1:
            raise ValueError(f"max_height must be >= 1, got {self.max_height}")
        if not 1 <= self.ttl_max <= 255:
            raise ValueError(f"ttl_max must be in [1, 255], got {self.ttl_max}")
        for name in ("keepalive_interval", "entry_ttl", "election_base",
                     "demotion_base", "lookup_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    # Convenience constructors for the paper's two experimental cases.
    @staticmethod
    def paper_case1(**overrides: object) -> "TreePConfig":
        """Case 1 (§IV.a): fixed ``nc = 4``."""
        return replace(TreePConfig(nc_mode="fixed", nc_fixed=4), **overrides)  # type: ignore[arg-type]

    @staticmethod
    def paper_case2(**overrides: object) -> "TreePConfig":
        """Case 2 (§IV.b): capacity-derived variable ``nc``."""
        return replace(TreePConfig(nc_mode="variable"), **overrides)  # type: ignore[arg-type]
