"""Meta-test: this repository lints clean at HEAD.

The acceptance contract of the lint subsystem: ``repro lint`` over the real
tree exits 0 — every historical finding is fixed or carries a justified
inline disable.  If this test fails, a determinism/invariant hazard entered
the tree; fix it (or add a rule-suppression with a justification) rather
than touching this test.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import RULES, LintConfig, find_project_root, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRepositoryIsClean:
    def test_repo_root_is_discoverable(self):
        assert (REPO_ROOT / "pyproject.toml").is_file()
        assert find_project_root(Path(__file__)) == REPO_ROOT

    def test_default_paths_lint_clean_with_every_rule(self):
        # The default paths are what CI's `repro lint src tests benchmarks`
        # covers, with every rule.
        report = run_lint(LintConfig(project_root=REPO_ROOT))
        assert report.errors == []
        assert report.findings == [], "\n".join(f.render() for f in report.findings)
        assert report.exit_code == 0
        assert sorted(report.rules_run) == sorted(rule.id for rule in RULES)
