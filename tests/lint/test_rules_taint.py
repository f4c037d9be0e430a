"""T-rules: raw Random arguments (T402)."""

from __future__ import annotations

from tests.lint.conftest import rule_ids


class TestT402RawRandomArgument:
    def test_fires_on_inline_and_named_random(self, project):
        project.write(
            "src/repro/util/seeding.py",
            """
            import random

            def shuffle_jobs(rng):
                return rng

            def setup_inline():
                return shuffle_jobs(random.Random(7))

            def setup_named():
                rng = random.Random(7)
                return shuffle_jobs(rng)
            """,
        )
        report = project.lint(select=("T402",))
        assert rule_ids(report) == ["T402", "T402"]
        for finding in report.findings:
            assert "raw random.Random passed into shuffle_jobs()" in finding.message

    def test_fires_on_keyword_argument(self, project):
        project.write(
            "src/repro/util/seeding.py",
            """
            import random

            def shuffle_jobs(rng=None):
                return rng

            def setup():
                return shuffle_jobs(rng=random.SystemRandom())
            """,
        )
        report = project.lint(select=("T402",))
        assert rule_ids(report) == ["T402"]
        assert "random.SystemRandom" in report.findings[0].message

    def test_silent_on_construction_and_stream_values(self, project):
        project.write(
            "src/repro/util/seeding.py",
            """
            import random

            def shuffle_jobs(stream):
                return stream

            def setup(streams):
                rng = random.Random(7)
                return shuffle_jobs(streams.stream("net"))
            """,
        )
        report = project.lint(select=("T402",))
        assert rule_ids(report) == []

    def test_tests_tree_is_exempt(self, project):
        project.write(
            "tests/util/test_seed.py",
            """
            import random

            def shuffle_jobs(rng):
                return rng

            def test_shuffle():
                assert shuffle_jobs(random.Random(7))
            """,
        )
        report = project.lint(paths=("tests",), select=("T402",))
        assert rule_ids(report) == []
