"""The layer map: the one statement of the import graph and of every rule scope.

``layers.toml`` (shipped next to this module) declares, per top-level
package under ``repro``, which packages it may import — RPR201 checks
every import edge against it — and the package or module scope of every
other rule.  :func:`load_layer_map` rejects a missing scope table and any
unknown table, so a typo cannot silently narrow a rule.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, Mapping, Optional, Tuple

__all__ = ["LayerMap", "LayerPolicy", "default_layers_path", "load_layer_map"]

#: rule-scope table -> its one key: packages, or module paths under ``src/``
_SCOPE_KEYS = {
    "determinism": "packages",  # RPR101/RPR102
    "lifecycle": "registry_files",  # RPR301
    "slots": "modules",  # RPR401
    "obs_guard": "packages",  # RPR402
}


def default_layers_path() -> Path:
    return Path(__file__).resolve().parent / "layers.toml"


@dataclass(frozen=True)
class LayerPolicy:
    """Import permissions for one top-level package under ``repro``."""

    may_import: FrozenSet[str] = frozenset()
    #: additionally allowed only from function/branch scope (lazy imports)
    lazy: FrozenSet[str] = frozenset()
    #: package -> allowed module prefixes, e.g. core may reach ``obs`` only
    #: through ``repro.obs.runtime`` (the ambient-hook entry point)
    via: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def reachable(self) -> FrozenSet[str]:
        return self.may_import | self.lazy


@dataclass(frozen=True)
class LayerMap:
    packages: Mapping[str, LayerPolicy]
    #: module relpath (under ``src/``) -> replacement policy
    overrides: Mapping[str, LayerPolicy]
    #: scope table ([determinism], [slots], …) -> the packages or modules it names
    scopes: Mapping[str, FrozenSet[str]]

    def policy_for(self, relpath: str, package: str) -> Optional[LayerPolicy]:
        """Override (exact module path under src/) wins over the package."""
        override = self.overrides.get(relpath.removeprefix("src/"))
        if override is not None:
            return override
        return self.packages.get(package)


def _policy_from(table: dict, where: str) -> LayerPolicy:
    known = {"may_import", "lazy", "via"}
    extra = set(table) - known
    if extra:
        raise ValueError(f"{where}: unknown key(s) {sorted(extra)}")
    via = {
        pkg: tuple(mods) for pkg, mods in (table.get("via") or {}).items()
    }
    return LayerPolicy(
        may_import=frozenset(table.get("may_import", ())),
        lazy=frozenset(table.get("lazy", ())),
        via=via,
    )


def load_layer_map(path: Optional[Path] = None) -> LayerMap:
    path = path or default_layers_path()
    data = tomllib.loads(path.read_text())
    unknown = set(data) - {"package", "overrides", *_SCOPE_KEYS}
    if unknown:
        raise ValueError(f"{path.name}: unknown table(s) {sorted(unknown)}")
    scopes = {}
    for table, key in _SCOPE_KEYS.items():
        if table not in data:
            raise ValueError(f"{path.name}: missing [{table}] table")
        if set(data[table]) != {key}:
            raise ValueError(f"{path.name}: [{table}] must hold exactly `{key}`")
        scopes[table] = frozenset(data[table][key])
    packages = {
        name: _policy_from(tbl, f"[package.{name}]")
        for name, tbl in (data.get("package") or {}).items()
    }
    overrides = {
        rel: _policy_from(tbl, f'[overrides."{rel}"]')
        for rel, tbl in (data.get("overrides") or {}).items()
    }
    # internal consistency: every package named anywhere must have a policy
    for name, pol in packages.items():
        unknown = (pol.reachable | set(pol.via)) - set(packages)
        if unknown:
            raise ValueError(
                f"[package.{name}] references unmapped package(s): {sorted(unknown)}"
            )
    return LayerMap(packages=packages, overrides=overrides, scopes=scopes)
