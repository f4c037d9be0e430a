"""Inline suppressions."""

from __future__ import annotations

from tests.lint.conftest import rule_ids


class TestInlineSuppressions:
    def test_disable_on_the_finding_line_is_honored(self, project):
        report = project.lint_snippet(
            "import random  # repro-lint: disable=D101  calibration-only shim\n",
            select=["D101"],
        )
        assert report.findings == []
        assert rule_ids_of(report.suppressed) == ["D101"]

    def test_disable_must_name_the_rule(self, project):
        report = project.lint_snippet(
            "import random  # repro-lint: disable=D102\n",
            select=["D101"],
        )
        assert rule_ids(report) == ["D101"]
        assert report.suppressed == []

    def test_disable_all_and_comma_lists(self, project):
        report = project.lint_snippet(
            """
            import random  # repro-lint: disable=all
            from random import Random  # repro-lint: disable=D999,D101
            """,
            select=["D101"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 2

    def test_disable_file_covers_every_line(self, project):
        report = project.lint_snippet(
            """
            # repro-lint: disable-file=D101
            import random

            def draw():
                import uuid
                return uuid.uuid4()
            """,
            select=["D101"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 3

    def test_exit_code_reflects_suppression(self, project):
        clean = project.lint_snippet(
            "import random  # repro-lint: disable=D101\n", select=["D101"]
        )
        assert clean.exit_code == 0
        dirty = project.lint_snippet("import random\n", select=["D101"])
        assert dirty.exit_code == 1


def rule_ids_of(findings):
    return [finding.rule for finding in findings]
