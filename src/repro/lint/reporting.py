"""Rendering a :class:`~repro.lint.engine.LintReport` as text or JSON."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.engine import LintReport

#: Bump when the ``--json`` payload layout changes incompatibly (a test
#: pins the key set, like every schema constant).
LINT_REPORT_SCHEMA_VERSION = 3


def report_to_dict(report: LintReport) -> Dict[str, object]:
    """The machine-readable payload printed by ``repro lint --json``."""
    return {
        "lint_report_schema_version": LINT_REPORT_SCHEMA_VERSION,
        "files_checked": report.files_checked,
        "rules_run": list(report.rules_run),
        "findings": [finding.to_dict() for finding in report.findings],
        "counts": {
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
        },
        "errors": list(report.errors),
        "exit_code": report.exit_code,
    }


def render_json(report: LintReport) -> str:
    return json.dumps(report_to_dict(report), indent=1, sort_keys=True)


def render_text(report: LintReport) -> List[str]:
    """Human-readable report: one line per finding plus a summary line."""
    lines: List[str] = []
    for error in report.errors:
        lines.append(f"error: {error}")
    for finding in report.findings:
        lines.append(finding.render())
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_checked} file(s)"
    )
    if report.suppressed:
        summary += f" ({len(report.suppressed)} suppressed inline)"
    lines.append(summary)
    return lines

