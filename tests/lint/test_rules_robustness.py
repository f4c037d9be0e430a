"""Tests for the R-family robustness rules (R701)."""

from tests.lint.conftest import rule_ids

WORKER_PATH = "src/repro/experiments/supervisor.py"


def _lint_worker(project, code, relpath=WORKER_PATH):
    project.write(relpath, code)
    return project.lint(select=("R",))


class TestR701Flags:
    def test_bare_except_pass_is_flagged(self, project):
        report = _lint_worker(
            project,
            """
            def worker_loop(conn):
                try:
                    conn.recv()
                except:
                    pass
            """,
        )
        assert rule_ids(report) == ["R701"]
        assert "bare except:" in report.findings[0].message
        assert "JobFailure" in report.findings[0].message

    def test_base_exception_pass_is_flagged(self, project):
        report = _lint_worker(
            project,
            """
            def attempt(job):
                try:
                    job.run()
                except BaseException:
                    return None
            """,
        )
        assert rule_ids(report) == ["R701"]
        assert "except BaseException" in report.findings[0].message

    def test_base_exception_in_tuple_is_flagged(self, project):
        report = _lint_worker(
            project,
            """
            def attempt(job):
                try:
                    job.run()
                except (ValueError, BaseException):
                    return None
            """,
        )
        assert rule_ids(report) == ["R701"]

    def test_executor_module_is_covered_too(self, project):
        report = _lint_worker(
            project,
            """
            def drain(stream):
                try:
                    return list(stream)
                except:
                    return []
            """,
            relpath="src/repro/experiments/executor.py",
        )
        assert rule_ids(report) == ["R701"]


class TestR701Allows:
    def test_reraise_is_legal(self, project):
        report = _lint_worker(
            project,
            """
            def worker_loop(conn):
                try:
                    conn.recv()
                except:
                    raise
            """,
        )
        assert rule_ids(report) == []

    def test_producing_a_job_attempt_is_legal(self, project):
        report = _lint_worker(
            project,
            """
            def attempt(job):
                try:
                    return job.run()
                except BaseException as exc:
                    return JobAttempt(attempt=1, outcome="raised",
                                      detail=str(exc), elapsed_s=0.0)
            """,
        )
        assert rule_ids(report) == []

    def test_delegating_to_failure_bookkeeping_is_legal(self, project):
        report = _lint_worker(
            project,
            """
            def handle(self, worker):
                try:
                    return worker.conn.recv()
                except BaseException:
                    return self._register_failure(worker)
            """,
        )
        assert rule_ids(report) == []

    def test_narrow_exception_handlers_stay_legal(self, project):
        # except Exception is how attempts become JobAttempt records; only
        # bare/BaseException handlers are the footgun.
        report = _lint_worker(
            project,
            """
            def attempt(job):
                try:
                    return job.run()
                except (EOFError, OSError):
                    return None
                except Exception:
                    return None
            """,
        )
        assert rule_ids(report) == []

    def test_non_worker_modules_are_exempt(self, project):
        report = _lint_worker(
            project,
            """
            def tolerant():
                try:
                    risky()
                except:
                    pass
            """,
            relpath="src/repro/core/other.py",
        )
        assert rule_ids(report) == []

    def test_suffix_config_is_honoured(self, project, monkeypatch):
        project.write(
            "src/repro/other/pool.py",
            """
            def loop():
                try:
                    work()
                except:
                    pass
            """,
        )
        clean = project.lint(select=("R",))
        assert rule_ids(clean) == []
        monkeypatch.setattr(
            "repro.lint.rules_robustness.WORKER_MODULE_SUFFIXES",
            ("repro/other/pool.py",),
        )
        widened = project.lint(select=("R",))
        assert rule_ids(widened) == ["R701"]


class TestR701OnRealTree:
    def test_the_real_supervisor_modules_are_clean(self):
        from pathlib import Path

        from repro.lint import LintConfig, run_lint

        root = Path(__file__).resolve().parents[2]
        report = run_lint(
            LintConfig(project_root=root, paths=("src",), select=("R",))
        )
        assert rule_ids(report) == []
