"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Simulation
figures are expensive, so they run exactly once per benchmark
(``benchmark.pedantic(..., rounds=1, iterations=1)``) and print the
regenerated rows/series so the output can be compared with the paper.

Scale selection: set ``REPRO_BENCH_SCALE=paper`` to run the paper-sized
sweeps (minutes per figure); the default ``bench`` scale keeps every figure
in the tens of seconds while preserving the qualitative shape.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.experiments import figures
from repro.results import RunStore


def emit(*parts) -> None:
    """Print one results line (accepts multiple arguments like ``print``)."""
    text = " ".join(str(part) for part in parts)
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


@pytest.fixture(autouse=True)
def _show_results(pytestconfig):
    """Disable output capture while a benchmark runs.

    The regenerated tables are the harness's primary output; they must reach
    the console (and any ``tee``'d log such as ``bench_output.txt``) even when
    the benchmark passes, and pytest only replays captured output for
    failures.
    """
    manager = pytestconfig.pluginmanager.getplugin("capturemanager")
    if manager is None:  # pragma: no cover - capture plugin always present
        yield
        return
    with manager.global_and_fixture_disabled():
        yield


@pytest.fixture(scope="session")
def figure_scale() -> figures.FigureScale:
    """The sweep scale used by every simulated-figure benchmark."""
    if os.environ.get("REPRO_BENCH_SCALE", "bench").lower() == "paper":
        return figures.paper_scale()
    return figures.bench_scale()


@pytest.fixture(scope="session")
def figure_store(tmp_path_factory) -> RunStore:
    """One run store for the session's figures: runs they share are resumed.

    Figures 6 and 8 plot the same runs, Figures 10 and 11 reuse the runs of
    6 and 7, and the headline claims read all of them, so each spec is
    simulated once per session.
    """
    return RunStore(tmp_path_factory.mktemp("figures")).open()


def run_once(benchmark, func, *args, **kwargs):
    """Run *func* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_figure(title: str, sweep, metric: str, note: str = "") -> None:
    """Print a regenerated simulation figure as a text table."""
    emit(f"\n=== {title} ===")
    if note:
        emit(note)
    emit(sweep.format_table(metric))


def print_series(title: str, series, x_label: str, y_label: str) -> None:
    """Print an analytical series (Figures 3 and 5)."""
    emit(f"\n=== {title} ===")
    emit(f"{x_label:>14} {y_label:>14}")
    for x, y in series:
        emit(f"{x:>14.2f} {y:>14.4f}")
