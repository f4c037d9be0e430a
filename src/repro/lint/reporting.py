"""Rendering a :class:`~repro.lint.engine.LintReport` as text or JSON."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.engine import LintReport

#: Bump when the ``--json`` payload layout changes incompatibly (a test
#: pins the key set, like every schema constant).
LINT_REPORT_SCHEMA_VERSION = 2


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
        "graph_built": report.graph_built,
        # Only attached under --graph-debug; absent keys keep the payload
        # layout stable for consumers that don't ask for the dump.
        **({"callgraph": report.graph_dump} if report.graph_dump is not None else {}),
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
    if report.graph_dump is not None:
        lines.extend(render_graph_debug(report.graph_dump))
    return lines


def render_graph_debug(dump: Dict[str, object]) -> List[str]:
    """Text form of the ``--graph-debug`` dump: counts, edges, unresolved."""
    counts = dump.get("counts", {})
    lines = [
        "callgraph: {functions} function(s), {resolved_edges} resolved "
        "edge(s), {unresolved_calls} unresolved call(s)".format(**counts)
    ]
    for edge in dump.get("edges", []):
        locks = f"  [locks: {', '.join(edge['locks'])}]" if edge["locks"] else ""
        lines.append(f"  {edge['caller']}:{edge['line']} -> {edge['callee']}{locks}")
    for call in dump.get("unresolved", []):
        lines.append(
            f"  {call['caller']}:{call['line']} ~> {call['target']} "
            f"(unresolved: {call['reason']})"
        )
    return lines
