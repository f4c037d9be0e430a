"""R-rules: fault-tolerance invariants of the supervised executor.

PR 9 made job failure a recorded outcome: every failed attempt inside the
worker/supervisor layer must end up as a :class:`~repro.results.JobFailure`
(or be re-raised), never silently dropped.  That invariant is prose plus
tests; per the ROADMAP policy it also gets a mechanized rule:

* **R701** — in the worker/supervisor modules (``WORKER_MODULE_SUFFIXES``),
  a bare ``except:`` or an ``except BaseException`` handler must either
  re-raise or feed the failure-recording machinery (reference
  ``JobFailure``/``JobAttempt`` or a ``*_failure``-named helper).  Catching ``BaseException`` in a worker
  swallows ``KeyboardInterrupt``/``SystemExit`` and — worse — turns a
  crashed attempt into a silently missing record: the supervisor counts the
  job as in-flight forever or the sweep "succeeds" with a hole in it.
  Narrow handlers (``except Exception``, specific exception types) stay
  legal — they are how attempts are converted into :class:`JobAttempt`
  records.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lint.config import WORKER_MODULE_SUFFIXES
from repro.lint.framework import FileRule, Finding

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.engine import Project, SourceFile

#: Names in a handler body that count as producing a structured failure.
_FAILURE_NAMES = ("JobFailure", "JobAttempt")


def _catches_base_exception(handler: ast.ExceptHandler) -> bool:
    """Whether the handler is ``except:`` or catches ``BaseException``."""
    if handler.type is None:
        return True
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for node in types:
        if isinstance(node, ast.Name) and node.id == "BaseException":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "BaseException":
            return True
    return False


def _surfaces_failure(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises or produces a failure record."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Name) and node.id in _FAILURE_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _FAILURE_NAMES:
            return True
        # Delegation to the supervisor's failure bookkeeping
        # (e.g. self._register_failure(...), _handle_worker_death(...)).
        if isinstance(node, ast.Call):
            target = node.func
            name = (
                target.attr
                if isinstance(target, ast.Attribute)
                else target.id if isinstance(target, ast.Name) else ""
            )
            if "failure" in name or "worker_death" in name:
                return True
    return False


class SupervisedFailuresSurfaceRule(FileRule):
    id = "R701"
    name = "supervised-failures-surface"
    description = (
        "worker/supervisor modules must not swallow failures with bare "
        "except/BaseException handlers that produce no JobFailure"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if source.tree is None:
            return
        if not any(source.relpath.endswith(s) for s in WORKER_MODULE_SUFFIXES):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _catches_base_exception(node):
                continue
            if _surfaces_failure(node):
                continue
            caught = "bare except:" if node.type is None else "except BaseException"
            yield self.finding(
                source,
                node,
                f"{caught} in a worker/supervisor module swallows the failure "
                "without re-raising or recording a JobFailure — the attempt "
                "vanishes instead of being quarantined; catch Exception and "
                "convert it into a JobAttempt/JobFailure, or re-raise",
            )
