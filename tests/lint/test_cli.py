"""``repro lint`` CLI: JSON schema, exit codes, selection."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.lint import LINT_REPORT_SCHEMA_VERSION


@pytest.fixture
def capture():
    lines = []
    return lines, lines.append


@pytest.fixture
def fixture_project(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fixture'\n")
    bad = tmp_path / "src" / "repro" / "core"
    bad.mkdir(parents=True)
    (bad / "snippet.py").write_text("import random\n")
    return tmp_path


def run_lint_cli(fixture_project, capture, *extra):
    lines, out = capture
    code = main(
        ["lint", "--root", str(fixture_project), "--select", "D101", *extra],
        out=out,
    )
    return code, lines


class TestExitCodes:
    def test_findings_exit_1(self, fixture_project, capture):
        code, lines = run_lint_cli(fixture_project, capture, "src")
        assert code == 1
        assert any("D101" in line for line in lines)

    def test_clean_exit_0(self, fixture_project, capture):
        (fixture_project / "src" / "repro" / "core" / "snippet.py").write_text("x = 1\n")
        code, lines = run_lint_cli(fixture_project, capture, "src")
        assert code == 0
        assert any("0 finding(s)" in line for line in lines)

    def test_missing_path_exit_2(self, fixture_project, capture):
        code, lines = run_lint_cli(fixture_project, capture, "no-such-dir")
        assert code == 2
        assert any("not found" in line for line in lines)

    def test_missing_root_exit_2(self, capture):
        lines, out = capture
        assert main(["lint", "--root", "/no/such/root", "src"], out=out) == 2


class TestSelection:
    def test_select_other_family_ignores_finding(self, fixture_project, capture):
        lines, out = capture
        code = main(
            ["lint", "--root", str(fixture_project), "--select", "T402", "src"],
            out=out,
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flags", [["--select", "Z9"], ["--select", "D,S201"], ["--ignore", "C301"]]
    )
    def test_prefix_matching_no_rule_is_a_usage_error(
        self, fixture_project, capture, flags
    ):
        lines, out = capture
        code = main(["lint", "--root", str(fixture_project), *flags, "src"], out=out)
        assert code == 2
        text = "\n".join(lines)
        assert "match no rule" in text
        assert "known: D101, D102" in text

    def test_ignore_flag_drops_rule(self, fixture_project, capture):
        lines, out = capture
        code = main(
            [
                "lint",
                "--root",
                str(fixture_project),
                "--select",
                "D",
                "--ignore",
                "D101",
                "src",
            ],
            out=out,
        )
        assert code == 0

    def test_list_rules(self, capture):
        lines, out = capture
        assert main(["lint", "--list-rules"], out=out) == 0
        assert [line.split()[0] for line in lines] == [
            "D101", "D102", "D103", "D104", "E001", "E002", "R701", "T402", "W001",
        ]


class TestJsonOutput:
    def test_json_schema(self, fixture_project, capture):
        code, lines = run_lint_cli(fixture_project, capture, "src", "--json")
        assert code == 1
        payload = json.loads("\n".join(lines))
        assert LINT_REPORT_SCHEMA_VERSION == 3
        assert set(payload) == {
            "lint_report_schema_version",
            "files_checked",
            "rules_run",
            "findings",
            "counts",
            "errors",
            "exit_code",
        }
        assert payload["lint_report_schema_version"] == LINT_REPORT_SCHEMA_VERSION
        assert payload["exit_code"] == 1
        assert payload["files_checked"] == 1
        assert payload["rules_run"] == ["D101"]
        assert payload["counts"] == {"findings": 1, "suppressed": 0}
        (finding,) = payload["findings"]
        assert finding == {
            "rule": "D101",
            "severity": "error",
            "path": "src/repro/core/snippet.py",
            "line": 1,
            "col": 0,
            "message": finding["message"],
        }

    def test_json_clean_run(self, fixture_project, capture):
        (fixture_project / "src" / "repro" / "core" / "snippet.py").write_text("x = 1\n")
        code, lines = run_lint_cli(fixture_project, capture, "src", "--json")
        assert code == 0
        payload = json.loads("\n".join(lines))
        assert payload["findings"] == []
        assert payload["exit_code"] == 0

