"""The docs must render with zero broken intra-repo links.

Mirrors the CI docs job (``python tools/check_links.py README.md docs``)
so link rot fails locally before it fails in CI.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_links.py")


def _run(*args):
    return subprocess.run([sys.executable, CHECKER, *args],
                          cwd=REPO_ROOT, capture_output=True, text=True)


def test_readme_and_docs_have_no_broken_links():
    proc = _run("README.md", "docs")
    assert proc.returncode == 0, f"broken links:\n{proc.stdout}{proc.stderr}"
    assert "0 broken link(s)" in proc.stdout


def test_docs_pages_exist():
    for page in ("architecture.md", "api.md", "benchmarks.md",
                 "performance.md"):
        assert os.path.exists(os.path.join(REPO_ROOT, "docs", page)), page


def test_benchmarks_catalogue_covers_scale_scenarios():
    """Drift pin: the generated catalogue embedded in docs/benchmarks.md
    must list the scale_* sweeps (regenerate with
    `python -m repro.bench report` after changes)."""
    with open(os.path.join(REPO_ROOT, "docs", "benchmarks.md")) as fh:
        doc = fh.read()
    for name in ("scale_lookup", "scale_churn", "scale_quorum_rw",
                 "scale_jobs"):
        assert f"`{name}`" in doc, f"{name} missing from the catalogue"
    assert "performance.md" in doc  # the scale docs cross-link


def test_performance_doc_records_the_before_after_pair():
    """docs/performance.md must keep pointing at the PR-5 before/after
    pair where it still is (git history), and at today's golden, which
    must exist."""
    with open(os.path.join(REPO_ROOT, "docs", "performance.md")) as fh:
        doc = fh.read()
    for ref in ("980145d:benchmarks/out/pre_pr5/bench_scale_lookup.json",
                "980145d:benchmarks/out/bench_scale_lookup.json"):
        assert f"git show {ref}" in doc, f"{ref} no longer referenced"
    golden = "benchmarks/out/bench_scale_lookup.json"
    assert f"`{golden}`" in doc
    assert os.path.exists(os.path.join(REPO_ROOT, golden))


def test_checker_catches_a_broken_link(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](./nope.md) and [gone](#no-such-heading)\n")
    proc = _run(str(bad))
    assert proc.returncode == 1
    assert "missing file" in proc.stdout
    assert "missing anchor" in proc.stdout


def test_checker_ignores_link_syntax_shown_as_code(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "# Doc\n\nWrite links as `[text](target.md)` in docs.\n\n"
        "```markdown\n[also ignored](missing.md)\n```\n")
    proc = _run(str(doc))
    assert proc.returncode == 0, proc.stdout
