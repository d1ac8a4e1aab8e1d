"""Per-rule behaviour of the ``repro.lint`` invariant analyzer.

Every rule is exercised four ways against seeded fixture trees: a
negative fixture the rule must flag, a clean fixture it must pass, a
justified suppression it must honour, and a bare (justification-free)
suppression it must reject with RPR001 while keeping the original
violation.  Engine-level behaviour (output formats, parse errors,
missing paths) rides on the same fixtures.
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.lint.cli import main
from repro.lint.engine import LintEngine, parse_suppressions
from repro.lint.layers import load_layer_map
from repro.lint.rules import all_rules

# A miniature layer map mirroring the real repo's shape: a kernel (sim),
# a core that may reach obs only via its runtime hub, a storage tier, a
# cluster facade with lazy composition imports, and a bench leaf.
FIXTURE_LAYERS = """\
[package.repro]
may_import = ["core"]

[package.sim]
may_import = []

[package.core]
may_import = ["sim", "obs"]

[package.core.via]
obs = ["repro.obs.runtime"]

[package.obs]
may_import = []

[package.storage]
may_import = ["core"]

[package.cluster]
may_import = ["core"]
lazy = ["storage"]

[package.bench]
may_import = ["cluster", "core", "storage"]

[determinism]
packages = ["core", "sim", "storage"]

[slots]
modules = ["repro/core/messages.py"]

[lifecycle]
registry_files = ["repro/cluster/registry.py"]

[obs_guard]
packages = ["cluster", "core"]
"""


def make_project(tmp_path: Path, files: dict) -> Path:
    (tmp_path / "pyproject.toml").write_text("[tool.repro-fixture]\n")
    layers_file = tmp_path / "layers.toml"
    layers_file.write_text(FIXTURE_LAYERS)
    for rel, source in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(source)
    return layers_file


def run_lint(tmp_path: Path, files: dict):
    layers_file = make_project(tmp_path, files)
    engine = LintEngine(
        root=tmp_path,
        rules={code: r.check for code, r in all_rules().items()},
        layers=load_layer_map(layers_file),
    )
    return engine.run([tmp_path / "src"])


def codes(report):
    return [v.code for v in report.violations]


# ---------------------------------------------------------------- RPR101
class TestRPR101:
    def test_wall_clock_read_flagged(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/clock.py":
                "import time\n\n\ndef stamp():\n    return time.time()\n",
        })
        assert codes(report) == ["RPR101"]
        assert "wall-clock" in report.violations[0].message

    def test_from_import_alias_resolved(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/sim/clock.py":
                "from time import time as now\n\n\ndef stamp():\n    return now()\n",
        })
        assert codes(report) == ["RPR101"]

    def test_global_random_flagged_seeded_instance_passes(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/draw.py":
                "import random\n\n\ndef bad():\n    return random.random()\n",
            "src/repro/core/seeded.py":
                "import random\n\nRNG = random.Random(7)\n\n\n"
                "def good():\n    return RNG.random()\n",
        })
        assert codes(report) == ["RPR101"]
        assert report.violations[0].path == "src/repro/core/draw.py"

    def test_unseeded_rng_constructors_flagged(self, tmp_path):
        # Each of these seeds itself from OS entropy.
        report = run_lint(tmp_path, {
            "src/repro/core/x.py":
                "import random\nfrom random import Random\n\n"
                "import numpy as np\nfrom numpy.random import default_rng\n\n\n"
                "def make():\n"
                "    a = np.random.default_rng()\n"
                "    b = np.random.default_rng(None)\n"
                "    c = random.Random()\n"
                "    d = Random(x=None)\n"
                "    e = default_rng(seed=None)\n"
                "    f = np.random.SeedSequence()\n"
                "    g = np.random.PCG64()\n"
                "    return a, b, c, d, e, f, g\n",
        })
        assert codes(report) == ["RPR101"] * 7
        assert [v.line for v in report.violations] == list(range(9, 16))
        assert "numpy.random.default_rng()" in report.violations[0].message

    def test_seeded_rng_constructors_pass(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/x.py":
                "import random\n\nimport numpy as np\n"
                "from numpy.random import default_rng\n\n\n"
                "def make(seed, **kw):\n"
                "    return (np.random.default_rng(seed), default_rng(seed=7),\n"
                "            random.Random(seed), random.Random(x=seed),\n"
                "            np.random.SeedSequence(entropy=seed),\n"
                "            np.random.Generator(np.random.PCG64(seed)),\n"
                "            np.random.MT19937(**kw))\n",
        })
        assert report.clean

    def test_out_of_scope_package_ignored(self, tmp_path):
        # bench is not in [determinism] packages: measurement code may
        # read the wall clock.
        report = run_lint(tmp_path, {
            "src/repro/bench/timer.py":
                "import time\n\n\ndef stamp():\n    return time.time()\n",
        })
        assert report.clean

    def test_suppression_with_justification_honoured(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/clock.py":
                "import time\n\n\ndef stamp():\n"
                "    return time.time()  # repro-lint: disable=RPR101"
                " fixture exercises the suppression protocol\n",
        })
        assert report.clean
        assert report.suppressed == 1

    def test_bare_suppression_rejected(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/clock.py":
                "import time\n\n\ndef stamp():\n"
                "    return time.time()  # repro-lint: disable=RPR101\n",
        })
        assert sorted(codes(report)) == ["RPR001", "RPR101"]


# ---------------------------------------------------------------- RPR102
class TestRPR102:
    def test_set_union_iteration_flagged(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/route.py":
                "def pick(a, b):\n    for x in a | {1, 2}:\n        return x\n",
        })
        assert codes(report) == ["RPR102"]

    def test_sorted_wrapper_passes(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/route.py":
                "def pick(a):\n    for x in sorted(a | {1, 2}):\n        return x\n",
        })
        assert report.clean


# ---------------------------------------------------------------- RPR201
class TestRPR201:
    def test_forbidden_edge_flagged(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/bad.py": "import repro.storage\n",
        })
        assert codes(report) == ["RPR201"]
        assert "may not import `storage`" in report.violations[0].message

    def test_forbidden_relative_edge_flagged(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/bad.py": "from ..storage import store\n",
        })
        assert codes(report) == ["RPR201"]
        assert "(module repro.storage)" in report.violations[0].message

    def test_lazy_only_package_at_module_scope_flagged(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/cluster/eager.py": "from repro.storage import store\n",
        })
        assert codes(report) == ["RPR201"]
        assert "only lazily" in report.violations[0].message

    def test_lazy_import_in_function_scope_passes(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/cluster/facade.py":
                "def with_storage():\n"
                "    from repro.storage import store\n"
                "    return store\n",
        })
        assert report.clean

    def test_via_restriction_enforced(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/hooks.py": "from repro.obs.hub import ObsHub\n",
            "src/repro/core/ambient.py": "from repro.obs.runtime import ambient_hub\n",
        })
        assert codes(report) == ["RPR201"]
        assert report.violations[0].path == "src/repro/core/hooks.py"
        assert "only via repro.obs.runtime" in report.violations[0].message

    def test_allowed_edge_passes(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/storage/store.py": "from repro.core import ids\n",
        })
        assert report.clean


# ---------------------------------------------------------------- RPR301
class TestRPR301:
    def test_stop_in_another_class_does_not_pair(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/cluster/beat.py":
                "class Beat:\n"
                "    def start(self, sim):\n"
                "        self.timer = sim.every(1.0, self.tick)\n"
                "class Other:\n"
                "    def close(self):\n"
                "        self.timer.stop()\n",
        })
        assert codes(report) == ["RPR301"]

    def test_paired_sim_every_passes(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/cluster/beat.py":
                "class Beat:\n"
                "    def start(self, sim):\n"
                "        self.timer = sim.every(1.0, self.tick)\n"
                "    def close(self):\n"
                "        self.timer.stop()\n",
        })
        assert report.clean

    def test_raw_sim_every_without_stop_flagged(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/cluster/beat.py":
                "class Beat:\n"
                "    def start(self, sim):\n"
                "        self.timer = sim.every(1.0, self.tick)\n",
        })
        assert codes(report) == ["RPR301"]

    def test_ctx_every_is_registry_owned(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/cluster/beat.py":
                "class Beat:\n"
                "    def start(self, ctx):\n"
                "        ctx.every(1.0, self.tick)\n",
        })
        assert report.clean

    def test_registry_file_itself_exempt(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/cluster/registry.py":
                "class Registry:\n"
                "    def start(self, sim):\n"
                "        self.timer = sim.every(1.0, self.tick)\n",
        })
        assert report.clean


# ---------------------------------------------------------------- RPR401
class TestRPR401:
    def test_plain_class_in_hot_module_flagged(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/messages.py":
                "class Ping:\n    def __init__(self):\n        self.seq = 0\n",
        })
        assert codes(report) == ["RPR401"]

    def test_slotted_variants_pass(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/messages.py":
                "from dataclasses import dataclass\n"
                "from typing import NamedTuple\n\n\n"
                "@dataclass(frozen=True, slots=True)\n"
                "class Ping:\n    seq: int\n\n\n"
                "class Pong(NamedTuple):\n    seq: int\n\n\n"
                "class Raw:\n    __slots__ = ('seq',)\n",
        })
        assert report.clean

    def test_other_modules_unconstrained(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/helpers.py":
                "class Scratch:\n    def __init__(self):\n        self.x = 0\n",
        })
        assert report.clean


# ---------------------------------------------------------------- RPR402
class TestRPR402:
    def test_chained_obs_use_flagged(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/instr.py":
                "class Node:\n"
                "    def send(self):\n"
                "        self.obs.record_event(1)\n",
        })
        assert codes(report) == ["RPR402"]

    def test_guard_on_attribute_chain_flagged(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/instr.py":
                "class Node:\n"
                "    def send(self, payload):\n"
                "        if self.net.obs is not None:\n"
                "            record(payload)\n",
        })
        assert codes(report) == ["RPR402"]

    def test_local_bind_pattern_passes(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/instr.py":
                "class Node:\n"
                "    def send(self, payload):\n"
                "        obs = self.obs\n"
                "        if obs is not None:\n"
                "            obs.record_event(payload)\n",
        })
        assert report.clean

    def test_out_of_scope_package_ignored(self, tmp_path):
        # bench reads `result.obs` as a plain JSON field; not flagged.
        report = run_lint(tmp_path, {
            "src/repro/bench/report.py":
                "def fields(result):\n    return result.obs.events\n",
        })
        assert report.clean


# ------------------------------------------------------------ suppressions
class TestSuppressionProtocol:
    def test_string_literal_cannot_create_phantom_suppression(self):
        sups = parse_suppressions(
            'MSG = "see # repro-lint: disable=RPR101 for details"\n'
        )
        assert sups == {}

    def test_multi_code_suppression(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/both.py":
                "import time\n\n\ndef f(s):\n"
                "    return [time.time() for x in s | {1}]"
                "  # repro-lint: disable=RPR101,RPR102"
                " fixture: one line, two invariants\n",
        })
        # The comprehension's iterable and the call sit on the same
        # line; both codes land on it and both are suppressed.
        assert report.clean
        assert report.suppressed == 2

    def test_suppression_for_other_code_does_not_apply(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/clock.py":
                "import time\n\n\ndef stamp():\n"
                "    return time.time()  # repro-lint: disable=RPR402"
                " wrong code on purpose\n",
        })
        assert "RPR101" in codes(report)


# ------------------------------------------------------------------ engine
class TestEngine:
    def test_syntax_error_reported_as_rpr000(self, tmp_path):
        report = run_lint(tmp_path, {
            "src/repro/core/broken.py": "def f(:\n",
        })
        assert codes(report) == ["RPR000"]


# --------------------------------------------------------------------- CLI
class TestCli:
    def _argv(self, tmp_path, *extra):
        return [
            str(tmp_path / "src"),
            "--project-root", str(tmp_path),
            "--layers", str(tmp_path / "layers.toml"),
            *extra,
        ]

    def test_exit_codes_and_text_format(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/core/clock.py":
                "import time\n\n\ndef stamp():\n    return time.time()\n",
            "src/repro/core/ok.py": "X = 1\n",
        })
        out = io.StringIO()
        assert main(self._argv(tmp_path), stream=out) == 1
        text = out.getvalue()
        assert "src/repro/core/clock.py:5:" in text
        assert "RPR101" in text
        assert "1 violation(s) in 2 file(s)" in text

    def test_github_format(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/core/clock.py":
                "import time\n\n\ndef stamp():\n    return time.time()\n",
        })
        out = io.StringIO()
        assert main(self._argv(tmp_path, "--format", "github"), stream=out) == 1
        line = out.getvalue().splitlines()[0]
        assert line.startswith("::error file=src/repro/core/clock.py,line=5,")
        assert "title=RPR101::" in line

    def test_clean_tree_exits_zero(self, tmp_path):
        make_project(tmp_path, {"src/repro/core/ok.py": "X = 1\n"})
        out = io.StringIO()
        assert main(self._argv(tmp_path), stream=out) == 0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        # A mistyped path must not pass vacuously as "0 violation(s) in
        # 0 file(s)".
        make_project(tmp_path, {"src/repro/core/ok.py": "X = 1\n"})
        out = io.StringIO()
        argv = [str(tmp_path / "does_not_exist"), *self._argv(tmp_path)[1:]]
        assert main(argv, stream=out) == 2
        assert out.getvalue() == ""
        assert "does_not_exist" in capsys.readouterr().err

    def test_list_rules(self, tmp_path):
        make_project(tmp_path, {})
        out = io.StringIO()
        assert main(["--list-rules"], stream=out) == 0
        listed = [line.split()[0] for line in out.getvalue().splitlines()]
        assert listed == [
            "RPR101", "RPR102", "RPR201", "RPR301", "RPR401", "RPR402",
        ]
