"""``tools/reach.py`` on a fixture package: what it reports and what it
refuses.  The full census runs in CI's "Reachability census" step."""

import importlib.util
import os
import sys
import textwrap

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "reach.py")

FIXTURE = textwrap.dedent('''\
    import functools


    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)
        return wrapper


    def entered():
        helper(), decorated(), Box().method()


    def helper():
        return 1


    @deco
    def decorated():
        return 2


    class Box:
        def method(self):
            return 3


    def only_tests():
        return 4


    def listed():
        return 5
''')


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def census(tmp_path):
    """``run(allowlist text) -> findings`` over the fixture package, whose
    one entry point calls ``entered()`` while a "test" calls
    ``only_tests()`` outside the census."""
    reach = _load("reach_tool", TOOL)
    root = tmp_path / "fixpkg"
    root.mkdir()
    (root / "mod.py").write_text(FIXTURE)
    loaded = []

    def entry_point():  # imports under the hook, as the tool's entry points do
        loaded.append(_load("reach_fixture_mod", str(root / "mod.py")))
        loaded[0].entered()

    reached, failures = reach.record([("entered", entry_point)], str(root))
    assert failures == []
    loaded[0].only_tests()
    defs = reach.defs_in(str(root))

    def run(allowlist):
        allowed, errors = reach.read_allowlist(allowlist.splitlines())
        assert errors == []
        return reach.census(defs, reached, allowed)

    run.reach, run.defs = reach, defs
    return run


def test_a_function_only_a_test_calls_is_reported(census):
    findings = census("mod.py:listed  # api: kept\n")
    assert len(findings) == 1
    assert "mod.py:" in findings[0] and "only_tests (2 lines)" in findings[0]


def test_an_allowlisted_function_is_not_reported(census):
    findings = census("mod.py:only_tests  # api: kept\n"
                      "mod.py:listed  # api: kept\n")
    assert findings == []


def test_a_stale_entry_fails_when_reached_or_gone(census):
    findings = census("mod.py:only_tests  # api: kept\n"
                      "mod.py:listed  # api: kept\n"
                      "mod.py:helper  # api: now has a caller\n"
                      "mod.py:deleted  # api: no longer exists\n")
    assert findings == ["stale allowlist entry mod.py:helper: now reached",
                        "stale allowlist entry mod.py:deleted: no such function"]


def test_a_decorated_def_is_matched_on_its_decorator_line(census):
    decorated = next(d for d in census.defs if d.qualname == "decorated")
    assert FIXTURE.splitlines()[decorated.line - 1] == "@deco"
    findings = census("mod.py:only_tests  # api: kept\n"
                      "mod.py:listed  # api: kept\n")
    assert not any("decorated" in f or "wrapper" in f for f in findings)


def test_an_entry_point_that_drops_the_hook_fails(census, tmp_path):
    _, failures = census.reach.record(
        [("unhooks", lambda: sys.setprofile(None))], str(tmp_path))
    assert failures == ["entry point unhooks dropped the profile hook"]


def test_an_entry_needs_a_known_kind_and_a_reason(census):
    for line in ("mod.py:listed\n", "mod.py:listed  # kept\n",
                 "mod.py:listed  # whim: kept\n", "mod.py:listed  # api:\n"):
        _, errors = census.reach.read_allowlist([line])
        assert len(errors) == 1, line


def test_an_emptied_kind_cannot_regrow(census):
    """Test oracles live in tests/: a ``reference`` entry is malformed."""
    _, errors = census.reach.read_allowlist(
        ["mod.py:only_tests  # reference: a helper only tests compare with\n"])
    assert len(errors) == 1 and "reference" in errors[0]
