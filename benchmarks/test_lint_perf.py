"""Lint-engine benchmark: the graph phase must stay a cheap second pass.

The two-phase engine parses every file once and builds the call graph at
most once, so the project-wide T/L families should cost a fraction of
the parse-dominated per-file pass — not multiply it.  This benchmark times
a full run (all rules, graph built) against a per-file-only run (graph
families ignored, graph never built) over the same tree and holds the
ratio under 2x, the ISSUE's acceptance bar for "the graph pass rides
along for free-ish".
"""

import dataclasses
from pathlib import Path
from time import perf_counter

from benchmarks.conftest import emit, run_once
from repro.lint import RULES, LintConfig, run_lint

#: Acceptance bar: full two-phase wall <= 2x the per-file-only wall.
MAX_TWO_PHASE_RATIO = 2.0

#: Same tree the CI lint gate covers.
LINT_PATHS = ("src", "tests", "benchmarks")

ROUNDS = 2


def _measure_two_phase_overhead():
    root = Path(__file__).resolve().parents[1]
    config = LintConfig(project_root=root, paths=LINT_PATHS)
    graph_ids = tuple(rule.id for rule in RULES if rule.needs_graph)
    per_file_config = dataclasses.replace(config, ignore=graph_ids)

    per_file_walls, full_walls = [], []
    for _ in range(ROUNDS):  # interleaved; best-of damps scheduler noise
        started = perf_counter()
        per_file_report = run_lint(per_file_config)
        per_file_walls.append(perf_counter() - started)
        started = perf_counter()
        full_report = run_lint(config)
        full_walls.append(perf_counter() - started)

    assert not per_file_report.graph_built, "per-file run must skip the graph"
    assert full_report.graph_built, "full run must build the graph"
    return (
        min(per_file_walls),
        min(full_walls),
        per_file_report.files_checked,
        len(graph_ids),
    )


def test_two_phase_lint_within_2x_of_per_file(benchmark):
    per_file_wall, full_wall, files, graph_rules = run_once(
        benchmark, _measure_two_phase_overhead
    )

    ratio = full_wall / per_file_wall
    emit("\n=== repro lint: per-file pass vs full two-phase run ===")
    emit(f"{'run':>28} {'files':>6} {'wall (s)':>9}")
    emit(f"{'per-file rules only':>28} {files:>6} {per_file_wall:>9.3f}")
    emit(
        f"{'full (+%d graph rules)' % graph_rules:>28} {files:>6} "
        f"{full_wall:>9.3f}"
    )
    emit(f"{'ratio':>28} {ratio:>16.2f}x (bar: <= {MAX_TWO_PHASE_RATIO}x)")

    assert ratio <= MAX_TWO_PHASE_RATIO, (
        f"two-phase lint took {ratio:.2f}x the per-file pass "
        f"({full_wall:.3f}s vs {per_file_wall:.3f}s); "
        f"bar is {MAX_TWO_PHASE_RATIO}x"
    )
