"""``repro.lint`` — the AST-based determinism & invariant linter.

The runtime guarantees this repository leans on (byte-identical metrics
across serial/parallel runs and fast-path/oracle pairs) are enforced
dynamically by the differential suites and digest pins — but a differential
suite takes minutes to say what a static check can say in milliseconds.
This package holds the checks that need static analysis: a small rule
framework (:mod:`repro.lint.framework`) over one shared per-file
AST/symbol pass (:mod:`repro.lint.symbols`).  Every rule is per-file:

* **D-rules** (:mod:`repro.lint.rules_determinism`) — determinism hazards
  in the simulation layers: stdlib entropy, wall-clock reads, hash-ordered
  set iteration, ``id()``/``hash()`` ordering.
* **T402** (:mod:`repro.lint.rules_taint`) — a raw ``random.Random``
  passed between functions under ``src/``.
* **R-rules** (:mod:`repro.lint.rules_robustness`) — worker/supervisor
  modules never swallow a failed attempt.

The engine itself emits **E/W findings**
(:mod:`repro.lint.rules_engine`): unparseable/unreadable files (E001/
E002) and stale or unknown-id suppression comments (W001).

Invariants a static check can only approximate are checked at runtime
instead: hot-path ``__slots__`` and schema-constant pins by tests, oracle
switches and twin signatures by ``oracle_mode()`` on entry, and — in every
tier-1 test — entropy reached through a helper, store writes outside the
store lock and store handles crossing into a child process, by the guards
in ``tests/runtime_guards.py``.

Entry points: ``repro lint`` on the command line, :func:`run_lint` from
code.  Findings are silenced per line with ``# repro-lint: disable=RULE``
plus a justification.
"""

from repro.lint.config import SIM_LAYERS, LintConfig, find_project_root
from repro.lint.engine import RULES, LintReport, Project, SourceFile, parse_source, run_lint
from repro.lint.framework import (
    EngineRule,
    FileRule,
    Finding,
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
    "EngineRule",
    "FileRule",
    "Finding",
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
    "find_project_root",
    "parse_source",
    "render_json",
    "render_text",
    "report_to_dict",
    "run_lint",
    "select_rules",
]
