"""``repro.lint`` — the AST-based determinism & invariant linter.

The runtime guarantees this repository leans on (byte-identical metrics
across serial/parallel runs and fast-path/oracle pairs) are enforced
dynamically by the differential suites and digest pins — but a differential
suite takes minutes to say what a static check can say in milliseconds.
This package holds the checks that need static analysis: a small rule
framework (:mod:`repro.lint.framework`) over one shared per-file
AST/symbol pass (:mod:`repro.lint.symbols`), with two per-file families:

* **D-rules** (:mod:`repro.lint.rules_determinism`) — determinism hazards
  in the simulation layers: stdlib entropy, wall-clock reads, hash-ordered
  set iteration, ``id()``/``hash()`` ordering.
* **R-rules** (:mod:`repro.lint.rules_robustness`) — worker/supervisor
  modules never swallow a failed attempt.

On top of the per-file pass sits a project-wide analysis engine: a
resolved call graph (:mod:`repro.lint.callgraph`) with taint/reachability
and lock-dominance layers (:mod:`repro.lint.dataflow`), consumed by the
graph-driven families run as a second phase:

* **T-rules** (:mod:`repro.lint.rules_taint`) — cross-file entropy taint:
  sim-layer functions reaching stdlib entropy through call chains, raw
  ``random.Random`` values passed between functions.
* **L-rules** (:mod:`repro.lint.rules_locks`) — store lock discipline:
  writes in the results store dominated by the store lock, no store
  handles captured across multiprocessing forks.

The engine itself emits **E/W findings**
(:mod:`repro.lint.rules_engine`): unparseable/unreadable files (E001/
E002) and stale suppression comments (W001).

Invariants that only name a fixed list of classes or constants are checked
at runtime instead: hot-path ``__slots__`` and schema-constant pins by
tests, oracle switches and twin signatures by ``oracle_mode()`` on entry.

Entry points: ``repro lint`` on the command line (``--graph-debug`` to dump
the graph), :func:`run_lint` from code.  Findings are silenced per line
with ``# repro-lint: disable=RULE`` plus a justification.
"""

from repro.lint.callgraph import CallGraph, CallSite, FunctionInfo, build_callgraph
from repro.lint.config import SIM_LAYERS, LintConfig, find_project_root
from repro.lint.engine import RULES, LintReport, Project, SourceFile, parse_source, run_lint
from repro.lint.framework import (
    EngineRule,
    FileRule,
    Finding,
    GraphRule,
    Rule,
    Severity,
    UnknownRuleError,
    select_rules,
)
from repro.lint.reporting import (
    LINT_REPORT_SCHEMA_VERSION,
    render_json,
    render_text,
    report_to_dict,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "EngineRule",
    "FileRule",
    "Finding",
    "FunctionInfo",
    "GraphRule",
    "LINT_REPORT_SCHEMA_VERSION",
    "LintConfig",
    "LintReport",
    "Project",
    "RULES",
    "Rule",
    "SIM_LAYERS",
    "Severity",
    "SourceFile",
    "UnknownRuleError",
    "build_callgraph",
    "find_project_root",
    "parse_source",
    "render_json",
    "render_text",
    "report_to_dict",
    "run_lint",
    "select_rules",
]
