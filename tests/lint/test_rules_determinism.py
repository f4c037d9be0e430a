"""D-rules: good/bad snippet pairs per determinism hazard."""

from __future__ import annotations

from tests.lint.conftest import rule_ids


class TestD101DirectEntropy:
    def test_bad_import_random_in_sim_layer(self, project):
        report = project.lint_snippet("import random\n", select=["D101"])
        assert rule_ids(report) == ["D101"]

    def test_bad_from_random_import(self, project):
        report = project.lint_snippet("from random import Random\n", select=["D101"])
        assert rule_ids(report) == ["D101"]

    def test_bad_uuid_and_urandom_calls(self, project):
        report = project.lint_snippet(
            """
            import os
            import uuid

            def fresh_token():
                return uuid.uuid4(), os.urandom(8)
            """,
            select=["D101"],
        )
        assert rule_ids(report) == ["D101", "D101", "D101"]  # import + 2 calls

    def test_good_randomstreams_usage(self, project):
        report = project.lint_snippet(
            """
            from repro.sim.rng import RandomStreams

            def draw(rng: RandomStreams) -> float:
                return rng.random("core.snippet")
            """,
            select=["D101"],
        )
        assert report.findings == []

    def test_good_type_checking_import(self, project):
        report = project.lint_snippet(
            """
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                import random

            def scatter(rng: "random.Random") -> float:
                return rng.random()
            """,
            select=["D101"],
        )
        assert report.findings == []

    def test_good_rng_module_is_exempt(self, project):
        report = project.lint_snippet(
            "import random\n",
            relpath="src/repro/sim/rng.py",
            select=["D101"],
        )
        assert report.findings == []

    def test_good_outside_sim_layers(self, project):
        report = project.lint_snippet(
            "import random\n",
            relpath="src/repro/experiments/sampling.py",
            select=["D101"],
        )
        assert report.findings == []


class TestD102WallClock:
    def test_bad_time_time_call(self, project):
        report = project.lint_snippet(
            """
            import time

            def stamp():
                return time.time()
            """,
            select=["D102"],
        )
        assert rule_ids(report) == ["D102"]

    def test_bad_from_import_and_reference(self, project):
        report = project.lint_snippet(
            """
            from time import perf_counter

            def stamp():
                return perf_counter()
            """,
            select=["D102"],
        )
        # Both the import and the call site are reported.
        assert rule_ids(report) == ["D102", "D102"]

    def test_bad_datetime_now(self, project):
        report = project.lint_snippet(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            select=["D102"],
        )
        assert rule_ids(report) == ["D102"]

    def test_good_simulated_time(self, project):
        report = project.lint_snippet(
            """
            def stamp(sim):
                return sim.now
            """,
            select=["D102"],
        )
        assert report.findings == []

    def test_good_wall_clock_outside_sim_layers(self, project):
        report = project.lint_snippet(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            relpath="src/repro/experiments/timing.py",
            select=["D102"],
        )
        assert report.findings == []


class TestD103UnsortedSetIteration:
    def test_bad_for_over_set_call(self, project):
        report = project.lint_snippet(
            """
            def schedule_all(sim, names):
                for name in set(names):
                    sim.schedule(0.0, name)
            """,
            select=["D103"],
        )
        assert rule_ids(report) == ["D103"]

    def test_bad_sum_over_set_variable(self, project):
        report = project.lint_snippet(
            """
            def total_energy(readings):
                pending = {r.name for r in readings}
                return sum(pending)
            """,
            select=["D103"],
        )
        assert rule_ids(report) == ["D103"]

    def test_bad_comprehension_over_set_literal(self, project):
        report = project.lint_snippet(
            """
            def labels():
                return [x for x in {"a", "b"}]
            """,
            select=["D103"],
        )
        assert rule_ids(report) == ["D103"]

    def test_good_sorted_set(self, project):
        report = project.lint_snippet(
            """
            def schedule_all(sim, names):
                for name in sorted(set(names)):
                    sim.schedule(0.0, name)
            """,
            select=["D103"],
        )
        assert report.findings == []

    def test_good_membership_and_order_free_reductions(self, project):
        report = project.lint_snippet(
            """
            def analyse(names, haystack):
                wanted = set(names)
                hits = len(wanted)
                present = "x" in wanted
                low = min(set(haystack))
                return hits, present, low
            """,
            select=["D103"],
        )
        assert report.findings == []

    def test_good_dict_iteration_is_insertion_ordered(self, project):
        report = project.lint_snippet(
            """
            def drain(queues):
                for name, queue in queues.items():
                    queue.flush(name)
            """,
            select=["D103"],
        )
        assert report.findings == []


class TestD104IdentityOrdering:
    def test_bad_sort_key_id(self, project):
        report = project.lint_snippet(
            """
            def stable(nodes):
                return sorted(nodes, key=id)
            """,
            select=["D104"],
        )
        assert rule_ids(report) == ["D104"]

    def test_bad_lambda_hash_key(self, project):
        report = project.lint_snippet(
            """
            def stable(nodes):
                nodes.sort(key=lambda n: hash(n))
                return nodes
            """,
            select=["D104"],
        )
        assert rule_ids(report) == ["D104"]

    def test_bad_id_comparison(self, project):
        report = project.lint_snippet(
            """
            def first(a, b):
                return a if id(a) < id(b) else b
            """,
            select=["D104"],
        )
        assert rule_ids(report) == ["D104"]

    def test_good_field_ordering(self, project):
        report = project.lint_snippet(
            """
            def stable(nodes):
                return sorted(nodes, key=lambda n: n.node_id)
            """,
            select=["D104"],
        )
        assert report.findings == []
