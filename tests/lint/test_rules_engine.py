"""Engine-emitted findings: crash robustness (E001/E002), stale
suppressions (W001).

The robustness contract: one broken file costs exactly one E-severity
finding — never a traceback, and never a lost finding in the files that do
parse.
"""

from __future__ import annotations

from repro.lint import Severity

from tests.lint.conftest import rule_ids


class TestE001SyntaxError:
    def test_single_finding_not_a_traceback(self, project):
        project.write("src/repro/core/broken.py", "def broken(:\n")
        project.write("src/repro/core/ok.py", "x = 1\n")
        report = project.lint()  # every rule
        broken = [f for f in report.findings if f.path == "src/repro/core/broken.py"]
        assert [f.rule for f in broken] == ["E001"]
        assert broken[0].severity is Severity.ERROR
        assert "does not parse" in broken[0].message
        assert report.exit_code == 1

    def test_other_rules_survive_broken_file(self, project):
        # The unparseable file costs its one E001; D101 still fires on the
        # healthy sim-layer file next to it.
        project.write("src/repro/core/broken.py", "def broken(:\n")
        project.write("src/repro/core/sim.py", "import random\n")
        report = project.lint(select=("E001", "D101"))
        assert [(f.rule, f.path) for f in report.findings] == [
            ("E001", "src/repro/core/broken.py"),
            ("D101", "src/repro/core/sim.py"),
        ]

    def test_gated_by_selection(self, project):
        project.write("src/repro/core/broken.py", "def broken(:\n")
        report = project.lint(select=("D",))
        assert rule_ids(report) == []


class TestE002UnreadableFile:
    def write_binary(self, project):
        path = project.root / "src" / "repro" / "core" / "binary.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x80\x81\xff\nx = 1\n")

    def test_single_finding_for_non_utf8(self, project):
        self.write_binary(project)
        project.write("src/repro/core/ok.py", "x = 1\n")
        report = project.lint()
        binary = [f for f in report.findings if f.path == "src/repro/core/binary.py"]
        assert [f.rule for f in binary] == ["E002"]
        assert "not valid UTF-8" in binary[0].message
        assert binary[0].line == 0
        assert report.exit_code == 1

    def test_gated_by_selection(self, project):
        self.write_binary(project)
        report = project.lint(select=("D",))
        assert rule_ids(report) == []


class TestW001UselessSuppression:
    def test_stale_directive_flagged_as_warning(self, project):
        report = project.lint_snippet(
            "x = 1  # repro-lint: disable=D101  left over from a migration\n",
            select=("D", "W001"),
        )
        assert rule_ids(report) == ["W001"]
        (finding,) = report.findings
        assert finding.severity is Severity.WARNING
        assert "disable=D101" in finding.message
        # Warnings report but do not gate.
        assert report.exit_code == 0

    def test_live_directive_not_flagged(self, project):
        report = project.lint_snippet(
            "import random  # repro-lint: disable=D101  oracle-only shim\n",
            select=("D", "W001"),
        )
        assert rule_ids(report) == []
        assert [f.rule for f in report.suppressed] == ["D101"]

    def test_stale_file_wide_directive_flagged(self, project):
        report = project.lint_snippet(
            "# repro-lint: disable-file=D103\nx = 1\n",
            select=("D", "W001"),
        )
        assert rule_ids(report) == ["W001"]
        assert "anywhere in the file" in report.findings[0].message

    def test_directive_for_unrun_rule_not_judged(self, project):
        # `--select D` must not flag a parked disable=R701 comment: R701
        # never ran, so the run has no evidence the directive is stale.
        report = project.lint_snippet(
            "x = 1  # repro-lint: disable=R701\n",
            select=("D", "W001"),
        )
        assert rule_ids(report) == []

    def test_unknown_rule_ids_flagged_even_when_unselected(self, project):
        # A typo (letter O for zero) and a retired id can never silence
        # anything, so no rule selection makes them safe to keep.
        report = project.lint_snippet(
            "x = 1  # repro-lint: disable=D1O1\ny = 2  # repro-lint: disable=S201\n",
            select=("D", "W001"),
        )
        assert rule_ids(report) == ["W001", "W001"]
        assert [f.line for f in report.findings] == [1, 2]
        for finding, rule_id in zip(report.findings, ("D1O1", "S201")):
            assert "unknown rule id" in finding.message
            assert f"disable={rule_id}" in finding.message

    def test_directive_quoted_in_docstring_ignored(self, project):
        report = project.lint_snippet(
            '"""Example: # repro-lint: disable=D101"""\nimport random\n',
            select=("D101", "W001"),
        )
        # Not honoured as a suppression, and not flagged as a stale one.
        assert rule_ids(report) == ["D101"]

    def test_w001_is_itself_suppressible(self, project):
        report = project.lint_snippet(
            "x = 1  # repro-lint: disable=D101,W001  grandfathered on purpose\n",
            select=("D", "W001"),
        )
        assert rule_ids(report) == []
        assert all(f.rule == "W001" for f in report.suppressed)
        assert report.suppressed
