"""Engine-emitted findings: crash robustness (E001/E002), stale
suppressions (W001).

The robustness contract: one broken file costs exactly one E-severity
finding — never a traceback, and never a poisoned graph phase for the
files that do parse.
"""

from __future__ import annotations

from repro.lint import Severity

from tests.lint.conftest import rule_ids


class TestE001SyntaxError:
    def test_single_finding_not_a_traceback(self, project):
        project.write("src/repro/core/broken.py", "def broken(:\n")
        project.write("src/repro/core/ok.py", "x = 1\n")
        report = project.lint()  # every rule, both phases
        broken = [f for f in report.findings if f.path == "src/repro/core/broken.py"]
        assert [f.rule for f in broken] == ["E001"]
        assert broken[0].severity is Severity.ERROR
        assert "does not parse" in broken[0].message
        assert report.exit_code == 1

    def test_graph_phase_survives_broken_file(self, project):
        # The graph pass must skip the unparseable file and still resolve
        # edges between the healthy ones.
        project.write("src/repro/core/broken.py", "def broken(:\n")
        project.write(
            "src/repro/util/helpers.py",
            "import random\n\n\ndef jitter():\n    return random.random()\n",
        )
        project.write(
            "src/repro/core/sim.py",
            """
            from repro.util.helpers import jitter

            def deliver():
                return jitter()
            """,
        )
        report = project.lint(select=("E001", "T401"))
        assert sorted(rule_ids(report)) == ["E001", "T401"]
        assert report.graph_built

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
        # `--select D` must not flag a parked disable=L501 comment: L501
        # never ran, so the run has no evidence the directive is stale.
        report = project.lint_snippet(
            "x = 1  # repro-lint: disable=L501\n",
            select=("D", "W001"),
        )
        assert rule_ids(report) == []

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
