"""Lint configuration: the run's knobs and the repository facts rules read.

A run is configured by :class:`LintConfig` (project root, paths, rule
selection); everything else the rules need to know about this repository's
layout is a module constant below.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

#: What ``repro lint`` checks when given no paths.
DEFAULT_PATHS: Tuple[str, ...] = ("src", "tests", "benchmarks")

#: Root of the importable source tree, relative to the project root.
SRC_ROOT = "src"

#: Layers of ``src/repro`` whose code runs *inside* a simulation and is
#: therefore covered by the determinism (D) rules.  ``experiments``,
#: ``results`` and the CLI orchestrate around the simulation (wall-clock
#: timing there is measurement, not simulated behaviour) and are exempt.
SIM_LAYERS: Tuple[str, ...] = (
    "sim",
    "core",
    "mac",
    "radio",
    "routing",
    "topology",
    "workload",
    "mobility",
    "faults",
)

#: The one module allowed to touch the stdlib ``random`` machinery: the
#: named-stream registry every stochastic component draws through.
RNG_MODULE_SUFFIX = "repro/sim/rng.py"

#: The crash-safe append-only store module: every write reachable there must
#: be dominated by the store lock (L501).
STORE_MODULE_SUFFIX = "repro/results/store.py"

#: ``with`` expressions that count as holding the store lock, and the lock
#: class itself (whose own methods are exempt — acquiring the lock cannot
#: require already holding it).
STORE_LOCK_NAMES: Tuple[str, ...] = ("self._lock", "_StoreLock")
STORE_LOCK_CLASSES: Tuple[str, ...] = ("_StoreLock",)

#: Store handle classes a multiprocessing worker must not capture (L502).
STORE_CLASSES: Tuple[str, ...] = ("RunStore",)

#: Modules holding worker entry points and supervisor retry paths — the
#: fault-tolerance layer where a swallowed exception silently loses a job
#: instead of producing a JobFailure (R701).
WORKER_MODULE_SUFFIXES: Tuple[str, ...] = (
    "repro/experiments/supervisor.py",
    "repro/experiments/executor.py",
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved configuration of one lint run."""

    project_root: Path
    paths: Tuple[str, ...] = DEFAULT_PATHS
    #: Rule-id prefixes to run (empty = every rule) and to skip.
    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    #: Attach the resolved call graph to the report (``--graph-debug``).
    graph_debug: bool = False


def find_project_root(start: Path) -> Path:
    """Nearest ancestor of *start* holding a ``pyproject.toml`` (else *start*)."""
    start = start.resolve()
    candidates = [start] if start.is_dir() else [start.parent]
    candidates.extend(candidates[0].parents)
    for candidate in candidates:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return candidates[0]
