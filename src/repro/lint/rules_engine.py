"""Catalog entries for findings the engine itself emits.

These three ids have no AST visitor — the engine produces them while
collecting files (E001/E002) and after applying suppressions (W001) — but
they are rules like any other so ``--list-rules`` shows them and
``--select``/``--ignore`` control them.  The emission logic lives in
:func:`repro.lint.engine.run_lint`; :func:`useless_directives` below is the
W001 computation it calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Set, Tuple

from repro.lint.framework import EngineRule, Finding, Severity
from repro.lint.suppress import Directive

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.engine import SourceFile


class SyntaxErrorRule(EngineRule):
    id = "E001"
    name = "file-parses"
    description = (
        "every linted file must parse (syntax error = one finding, not a "
        "traceback)"
    )


class UnreadableFileRule(EngineRule):
    id = "E002"
    name = "file-readable"
    description = (
        "every linted file must be readable UTF-8 (decode/IO failure = one "
        "finding, not a traceback)"
    )


class UselessSuppressionRule(EngineRule):
    id = "W001"
    name = "useless-suppression"
    description = (
        "a `# repro-lint: disable=RULE` comment must name a known rule and "
        "still suppress at least one finding for it"
    )
    severity = Severity.WARNING


def useless_directives(
    files: Iterable["SourceFile"],
    used: Dict[str, Set[Tuple[Directive, str]]],
    rules_run: Set[str],
    known_ids: Set[str],
) -> Iterator[Finding]:
    """W001 findings: directive ids that name no rule or silenced nothing.

    An id that matches no rule in *known_ids* (a typo, a retired rule) is
    always stale: it can never silence anything.  A known id is only judged
    when its rule actually ran (``--select D`` must not flag a parked
    ``disable=R701`` comment); ``all`` directives are judged whenever any
    rule ran.  Runs after suppression application, on the real finding set
    — no fixpoint: a W001 finding is itself suppressible, but suppressing
    one never revives another.
    """
    rule = UselessSuppressionRule()
    for source in files:
        path_used = used.get(source.relpath, set())
        for directive in source.suppressions.directives:
            scope = "anywhere in the file" if directive.file_wide else "on this line"
            for rule_id in sorted(directive.rules):
                if rule_id == "ALL":
                    if not rules_run or any(d == directive for d, _ in path_used):
                        continue
                    reason = f"all rules produced no finding {scope}"
                elif rule_id not in known_ids:
                    reason = "unknown rule id"
                elif rule_id not in rules_run or (directive, rule_id) in path_used:
                    continue
                else:
                    reason = f"{rule_id} produced no finding {scope}"
                yield Finding(
                    rule=rule.id,
                    severity=rule.severity,
                    path=source.relpath,
                    line=directive.lineno,
                    col=0,
                    message=(
                        f"useless suppression: {reason} — remove the stale "
                        f"`# repro-lint: {directive.kind}={rule_id}` directive"
                    ),
                )
