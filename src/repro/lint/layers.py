"""The machine-readable layer map and its docstring cross-validation.

``layers.toml`` (shipped next to this module) is the single source of
truth the RPR2xx rules enforce.  It is *generated from* the prose
owns/may-import layer contracts in the ``__init__.py`` docstrings of
``cluster``/``storage``/``compute``/``bench``/``obs``/``core`` — and
:func:`contract_drift` cross-validates the two, so the map and the prose
cannot drift apart (``tests/test_lint_repo.py`` pins this, and RPR202
re-checks it on every lint run).
"""

from __future__ import annotations

import re
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, List, Mapping, Optional, Tuple

__all__ = [
    "Contract",
    "LayerMap",
    "LayerPolicy",
    "contract_drift",
    "default_layers_path",
    "load_layer_map",
    "parse_contract",
]


# ------------------------------------------------------------ toml loading
def default_layers_path() -> Path:
    return Path(__file__).resolve().parent / "layers.toml"


# -------------------------------------------------------------- the layer map
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
    #: package -> exhaustive set of packages allowed to import it
    #: (only packages with a declared *imported-by* restriction appear)
    consumers: Mapping[str, FrozenSet[str]]
    #: module relpath (under ``src/``) -> replacement policy
    overrides: Mapping[str, LayerPolicy]
    #: rule-scope configuration blocks ([determinism], [slots], …)
    config: Mapping[str, dict] = field(default_factory=dict)

    def policy_for(self, relpath: str, package: str) -> Optional[LayerPolicy]:
        """Override (exact module path under src/) wins over the package."""
        key = relpath[len("src/"):] if relpath.startswith("src/") else relpath
        override = self.overrides.get(key)
        if override is not None:
            return override
        return self.packages.get(package)

    def actual_consumers(self, package: str) -> FrozenSet[str]:
        """Packages whose policy (or module override) may import ``package``."""
        out = set()
        for name, pol in self.packages.items():
            if package in pol.reachable and name != package:
                out.add(name)
        for relpath, pol in self.overrides.items():
            if package in pol.reachable:
                owner = relpath.split("/")[1] if "/" in relpath else relpath
                if owner != package:
                    out.add(owner)
        return frozenset(out)


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
    packages = {
        name: _policy_from(tbl, f"[package.{name}]")
        for name, tbl in (data.get("package") or {}).items()
    }
    consumers = {
        name: frozenset(vals)
        for name, vals in (data.get("consumers") or {}).items()
    }
    overrides = {
        rel: _policy_from(tbl, f'[overrides."{rel}"]')
        for rel, tbl in (data.get("overrides") or {}).items()
    }
    config = {
        key: tbl
        for key, tbl in data.items()
        if key not in ("package", "consumers", "overrides")
    }
    # internal consistency: every package named anywhere must have a policy
    names = set(packages)
    for name, pol in packages.items():
        unknown = (pol.reachable | set(pol.via)) - names
        if unknown:
            raise ValueError(
                f"[package.{name}] references unmapped package(s): {sorted(unknown)}"
            )
    for name, allowed in consumers.items():
        unknown = ({name} | allowed) - names
        if unknown:
            raise ValueError(
                f"[consumers] references unmapped package(s): {sorted(unknown)}"
            )
    return LayerMap(
        packages=packages, consumers=consumers, overrides=overrides, config=config
    )


# ----------------------------------------------- docstring layer contracts
@dataclass(frozen=True)
class Contract:
    """The machine-readable reading of one prose layer contract."""

    allow: FrozenSet[str] = frozenset()
    lazy: FrozenSet[str] = frozenset()
    deny: FrozenSet[str] = frozenset()
    #: None = no imported-by restriction declared
    consumers: Optional[FrozenSet[str]] = None

    @property
    def empty(self) -> bool:
        return not (self.allow or self.lazy or self.deny) and self.consumers is None


_CONTRACT_MARK = re.compile(r"Layer(?:ing)? contract:", re.IGNORECASE)
_REF_RE = re.compile(r"``([A-Za-z0-9_.]+)``")
_DENY_RE = re.compile(r"must not import|must never import|never imports?\b")


def _refs(fragment: str, known) -> FrozenSet[str]:
    out = set()
    for tok in _REF_RE.findall(fragment):
        name = tok.split(".")[1] if tok.startswith("repro.") else tok
        if tok == "repro":
            name = "repro"
        if name in known:
            out.add(name)
    return frozenset(out)


def parse_contract(doc: Optional[str], known) -> Contract:
    """Extract the layer contract from an ``__init__`` docstring.

    Grammar (validated by tests against every contract in the tree): the
    text from ``Layer contract:`` / ``Layering contract:`` onwards is
    split into fragments at ``;`` and sentence ends; each fragment is
    classified by keyword — *deny* (``must not import`` …), *imported-by*
    (``nothing … imports``, allowed consumers listed after ``except``),
    *lazy allow* (``lazily import``), or *allow* (``may import`` /
    ``import only``).  Package references are the ````repro.X````
    double-backtick tokens; anything that is not a known package name is
    prose and ignored.
    """
    if not doc:
        return Contract()
    m = _CONTRACT_MARK.search(doc)
    if m is None:
        return Contract()
    text = " ".join(doc[m.end():].split())
    allow: set = set()
    lazy: set = set()
    deny: set = set()
    consumers: Optional[set] = None
    for fragment in re.split(r";|\.\s|\.$", text):
        if not fragment.strip():
            continue
        if _DENY_RE.search(fragment):
            deny |= _refs(fragment, known)
        elif "nothing" in fragment and re.search(r"\bimports?\b", fragment):
            consumers = set() if consumers is None else consumers
            _, sep, tail = fragment.partition("except")
            if sep:
                consumers |= _refs(tail, known | {"repro"})
        elif "lazi" in fragment and "import" in fragment:
            lazy |= _refs(fragment, known)
        elif re.search(r"may import|imports? only", fragment):
            allow |= _refs(fragment, known)
    return Contract(
        allow=frozenset(allow),
        lazy=frozenset(lazy),
        deny=frozenset(deny),
        consumers=frozenset(consumers) if consumers is not None else None,
    )


def contract_drift(layer_map: LayerMap, package: str, contract: Contract) -> List[str]:
    """Human-readable mismatches between a prose contract and the map."""
    drift: List[str] = []
    pol = layer_map.packages.get(package)
    if pol is None:
        return [f"package {package!r} declares a layer contract but has no "
                f"[package.{package}] entry in layers.toml"]
    for t in sorted(contract.allow - pol.may_import):
        drift.append(
            f"docstring says {package} may import {t}, but layers.toml "
            f"[package.{package}] may_import does not list it"
        )
    for t in sorted(contract.lazy - pol.reachable):
        drift.append(
            f"docstring says {package} lazily imports {t}, but layers.toml "
            f"[package.{package}] does not allow it"
        )
    for t in sorted(contract.deny & pol.reachable):
        drift.append(
            f"docstring forbids {package} -> {t}, but layers.toml "
            f"[package.{package}] allows it"
        )
    if contract.consumers is not None:
        declared = contract.consumers
        mapped = layer_map.consumers.get(package)
        if mapped is None:
            drift.append(
                f"docstring restricts who imports {package}, but layers.toml "
                f"has no [consumers] entry for it"
            )
        else:
            for q in sorted(declared ^ mapped):
                drift.append(
                    f"imported-by contract for {package} disagrees on {q!r}: "
                    f"docstring={sorted(declared)}, layers.toml={sorted(mapped)}"
                )
        actual = layer_map.actual_consumers(package)
        for q in sorted(actual - declared):
            drift.append(
                f"{q} may import {package} per layers.toml, but the "
                f"{package} docstring does not list it as a consumer"
            )
    return drift
