"""Lint configuration: the run's knobs and the repository facts rules read.

A run is configured by :class:`LintConfig` (project root, paths, rule
selection); everything else the rules need to know about this repository's
layout is a module constant below.  The test suite's runtime guards
(``tests/runtime_guards.py``) read :data:`SIM_LAYERS` too, so the static
and the runtime checks share one definition of the simulation layers.
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
#: therefore covered by the determinism (D) rules and by the test suite's
#: entropy tripwire.  ``experiments``, ``results`` and the CLI orchestrate
#: around the simulation (wall-clock timing there is measurement, not
#: simulated behaviour) and are exempt.
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


def find_project_root(start: Path) -> Path:
    """Nearest ancestor of *start* holding a ``pyproject.toml`` (else *start*)."""
    start = start.resolve()
    candidates = [start] if start.is_dir() else [start.parent]
    candidates.extend(candidates[0].parents)
    for candidate in candidates:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return candidates[0]
