"""Rule framework of the invariant linter.

Every rule is a class that declares its own identity and implements one
check; :data:`repro.lint.engine.RULES` lists them all::

    class NoFooRule(FileRule):
        id = "D999"
        name = "no-foo"
        description = "forbid foo() in sim layers"

        def check_file(self, source, project):
            ...
            yield self.finding(source, node, "call to foo()")

Two base classes fix the calling convention:

* :class:`FileRule` — visited once per parsed source file; sees the shared
  per-file symbol pass (:class:`repro.lint.symbols.SymbolTable`) through
  ``source.symbols``.
* :class:`EngineRule` — an id the engine itself emits (E001/E002/W001).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    import ast

    from repro.lint.engine import Project, SourceFile


class Severity(enum.Enum):
    """How a finding gates the run: errors fail the build, notes do not."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    Attributes:
        rule: Rule id (e.g. ``"D101"``).
        severity: Gate level of the owning rule.
        path: Project-root-relative POSIX path of the file.
        line: 1-based line of the violation (0 for whole-file findings).
        col: 0-based column.
        message: Human-readable description of the violation.
    """

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


class Rule:
    """Base class of every lint rule; concrete rules subclass a flavour below."""

    id: str = ""
    name: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR

    def check(self, project: "Project") -> Iterator[Finding]:
        raise NotImplementedError

    # Helper shared by all rules: a finding anchored at an AST node.
    def finding(
        self,
        source: "SourceFile",
        node: Optional["ast.AST"],
        message: str,
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=source.relpath,
            line=getattr(node, "lineno", 0) if node is not None else 0,
            col=getattr(node, "col_offset", 0) if node is not None else 0,
            message=message,
        )


class FileRule(Rule):
    """A rule checked independently against every parsed file."""

    def check(self, project: "Project") -> Iterator[Finding]:
        for source in project.files:
            yield from self.check_file(source, project)

    def check_file(self, source: "SourceFile", project: "Project") -> Iterator[Finding]:
        raise NotImplementedError


class EngineRule(Rule):
    """Catalog entry for findings the engine itself emits (E/W ids).

    Crash robustness (E001/E002) and suppression hygiene (W001) are engine
    behaviour, not AST visits — but listing them as rules keeps every
    emittable id visible in ``--list-rules`` and addressable by
    ``--select``/``--ignore``; the engine consults the selected set before
    emitting.
    """

    def check(self, project: "Project") -> Iterator[Finding]:
        return iter(())


class UnknownRuleError(ValueError):
    """A ``select``/``ignore`` prefix that matches no rule id."""


def select_rules(
    rules: Sequence[Type[Rule]],
    select: Iterable[str] = (),
    ignore: Iterable[str] = (),
) -> List[Type[Rule]]:
    """The *rules* matching the select/ignore prefixes, in id order.

    ``select``/``ignore`` entries are id *prefixes* (``"D"`` selects the
    whole determinism family, ``"D103"`` one rule); empty ``select`` means
    every rule.  A prefix that matches no rule raises
    :class:`UnknownRuleError`: a typo or a retired id must not quietly
    shrink the gate to nothing.
    """
    select = tuple(s.strip().upper() for s in select if s.strip())
    ignore = tuple(s.strip().upper() for s in ignore if s.strip())
    ids = sorted(rule_class.id for rule_class in rules)
    unknown = [p for p in (*select, *ignore) if not any(i.startswith(p) for i in ids)]
    if unknown:
        raise UnknownRuleError(
            f"rule prefix(es) {', '.join(unknown)} match no rule; "
            f"known: {', '.join(ids)}"
        )
    return sorted(
        (
            rule_class
            for rule_class in rules
            if (not select or rule_class.id.startswith(select))
            and not rule_class.id.startswith(ignore)
        ),
        key=lambda rule_class: rule_class.id,
    )
