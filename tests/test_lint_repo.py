"""The analyzer against the real tree: ``src/repro`` must be clean, the
import graph must agree with ``layers.toml``, and every rule scope there
must name something that exists, so neither can drift without a test
failing.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.engine import LintEngine
from repro.lint.layers import default_layers_path, load_layer_map
from repro.lint.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def layer_map():
    return load_layer_map()


@pytest.fixture(scope="module")
def repo_report(layer_map):
    engine = LintEngine(
        root=REPO_ROOT,
        rules={code: r.check for code, r in all_rules().items()},
        layers=layer_map,
    )
    return engine.run([SRC])


class TestRepoIsClean:
    def test_src_has_no_violations(self, repo_report):
        details = "\n".join(
            f"{v.path}:{v.line}:{v.col} {v.code} {v.message}"
            for v in repo_report.violations
        )
        assert repo_report.clean, f"repro.lint found violations:\n{details}"

    def test_scan_actually_covered_the_tree(self, repo_report):
        # Guard against a silently-empty run masquerading as clean.
        assert repo_report.files == sum(1 for _ in SRC.rglob("*.py")) > 50

    def test_every_suppression_is_justified(self):
        # RPR001 in the repo would show up as a violation above; this
        # pins the *count* of justified suppressions so a new one is a
        # conscious, reviewed decision.
        from repro.lint.engine import parse_suppressions

        total = 0
        for path in sorted(SRC.rglob("*.py")):
            for sup in parse_suppressions(path.read_text()).values():
                assert sup.justification, f"bare suppression in {path}"
                total += 1
        assert total == 3

    def test_cli_default_invocation_exits_zero(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--format=github"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "::error" not in proc.stdout


class TestScopesNameRealCode:
    """A rename must not silently drop a file or package out of a rule."""

    @pytest.mark.parametrize("table", ["slots", "lifecycle"])
    def test_scoped_modules_exist(self, layer_map, table):
        for module in sorted(layer_map.scopes[table]):
            assert (SRC / module).is_file(), f"[{table}] names missing {module}"

    @pytest.mark.parametrize("table", ["determinism", "obs_guard"])
    def test_scoped_packages_exist(self, layer_map, table):
        for package in sorted(layer_map.scopes[table]):
            assert (SRC / "repro" / package / "__init__.py").is_file(), (
                f"[{table}] names missing package {package}"
            )

    @pytest.mark.parametrize(
        "typo, named",
        [("\n[determinism]", "\n[determinsm]"), ("\nmodules = [", "\nmodule = [")],
    )
    def test_misspelled_scope_is_rejected(self, tmp_path, typo, named):
        text = default_layers_path().read_text()
        assert text.count(typo) == 1
        bad = tmp_path / "layers.toml"
        bad.write_text(text.replace(typo, named))
        with pytest.raises(ValueError, match=r"determinsm|\[slots\]"):
            load_layer_map(bad)


def importers(layer_map, package):
    """Every ``[package.*]`` policy or override outside ``package`` that
    may import it."""
    out = [
        f"[package.{name}]"
        for name, pol in layer_map.packages.items()
        if name != package and package in pol.reachable
    ]
    out += [
        f'[overrides."{relpath}"]'
        for relpath, pol in layer_map.overrides.items()
        if not relpath.startswith(f"repro/{package}/") and package in pol.reachable
    ]
    return out


class TestIssueInvariantsPinned:
    """The specific architecture facts the analyzer exists to defend."""

    def test_core_sees_only_the_kernel_and_the_hub(self, layer_map):
        core = layer_map.packages["core"]
        assert core.reachable == {"sim", "obs"}
        for forbidden in ("cluster", "services", "storage", "compute"):
            assert forbidden not in core.reachable

    def test_core_reaches_obs_only_via_runtime_hub(self, layer_map):
        assert layer_map.packages["core"].via["obs"] == ("repro.obs.runtime",)

    def test_sim_imports_nothing(self, layer_map):
        assert layer_map.packages["sim"].reachable == frozenset()

    def test_nothing_below_cluster_imports_bench(self, layer_map):
        assert importers(layer_map, "bench") == []

    def test_nothing_imports_the_linter(self, layer_map):
        assert importers(layer_map, "lint") == []

    def test_cluster_composes_subsystems_lazily(self, layer_map):
        cluster = layer_map.packages["cluster"]
        assert cluster.may_import == {"core", "sim"}
        assert {"compute", "obs", "services", "storage"} <= cluster.lazy

    def test_determinism_scope_covers_simulation_tiers(self, layer_map):
        assert layer_map.scopes["determinism"] == {
            "compute", "core", "obs", "services", "sim", "storage",
        }

    def test_every_package_directory_is_mapped(self, layer_map):
        on_disk = {
            p.parent.name for p in SRC.glob("repro/*/__init__.py")
        }
        assert on_disk <= set(layer_map.packages)

    def test_every_overlay_message_has_a_node_handler(self):
        from repro.core.node import TreePNode

        tree = ast.parse((SRC / "repro" / "core" / "messages.py").read_text())
        classes = [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
        assert classes
        assert [c for c in classes if not hasattr(TreePNode, f"_on_{c}")] == []

    def test_core_holds_no_service_wire_format(self):
        service_name = re.compile(r"(Store|Job)[A-Z]")
        found = []
        for path in sorted((SRC / "repro" / "core").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    names = [node.name]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [a.asname or a.name for a in node.names]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}: {name}"
                          for name in names if service_name.match(name)]
        assert found == []

    def test_every_messages_module_is_slotted(self, layer_map):
        on_disk = {
            p.relative_to(SRC).as_posix() for p in SRC.glob("repro/*/messages.py")
        }
        assert len(on_disk) >= 3
        assert on_disk <= layer_map.scopes["slots"]


class TestDocsCoverRules:
    def test_static_analysis_doc_lists_every_rule(self):
        doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        for code in sorted(all_rules()):
            assert code in doc, f"{code} missing from docs/static-analysis.md"
        # engine-owned diagnostics are part of the contract too
        assert "RPR000" in doc
        assert "RPR001" in doc
