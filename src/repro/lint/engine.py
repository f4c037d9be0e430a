"""Lint engine: file collection, the shared parse pass, rule execution.

One run is::

    config  = LintConfig(project_root, paths=("src",))
    report  = run_lint(config)
    report.exit_code  # 0 clean, 1 findings, 2 usage error

Each collected file is parsed exactly once; the AST, raw lines and the
resolved-import/symbol pass (:mod:`repro.lint.symbols`) are shared by every
rule through :class:`SourceFile`.  Every rule is per-file, so a run is that
one parse pass plus the rules' walks over it.  :data:`RULES` is the rule
catalog.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Type

from repro.lint.config import LintConfig
from repro.lint.framework import (
    Finding,
    Rule,
    Severity,
    UnknownRuleError,
    select_rules,
)
from repro.lint.rules_determinism import (
    DirectEntropyRule,
    IdentityOrderingRule,
    UnsortedSetIterationRule,
    WallClockRule,
)
from repro.lint.rules_engine import (
    SyntaxErrorRule,
    UnreadableFileRule,
    UselessSuppressionRule,
    useless_directives,
)
from repro.lint.rules_robustness import SupervisedFailuresSurfaceRule
from repro.lint.rules_taint import RawRandomArgumentRule
from repro.lint.suppress import (
    SuppressionIndex,
    apply_suppressions,
    apply_suppressions_tracked,
    scan_suppressions,
)
from repro.lint.symbols import SymbolTable, build_symbol_table

#: Every rule ``repro lint`` knows, one class per id.
RULES: Tuple[Type[Rule], ...] = (
    DirectEntropyRule,
    WallClockRule,
    UnsortedSetIterationRule,
    IdentityOrderingRule,
    RawRandomArgumentRule,
    SupervisedFailuresSurfaceRule,
    SyntaxErrorRule,
    UnreadableFileRule,
    UselessSuppressionRule,
)


@dataclass
class SourceFile:
    """One parsed module plus everything the rules share about it."""

    path: Path
    relpath: str
    tree: Optional[ast.Module]
    symbols: SymbolTable
    suppressions: SuppressionIndex
    layer: Optional[str]
    #: Why the file could not be read at all (E002), if it couldn't.
    read_error: Optional[str] = None


def _classify_layer(relpath: str) -> Optional[str]:
    """The ``repro`` package layer a file belongs to, if any.

    ``src/repro/mac/delay.py`` -> ``"mac"``; files outside ``repro`` (tests,
    benchmarks, scripts) classify as ``None`` and are skipped by the
    layer-scoped rule families.
    """
    parts = Path(relpath).parts
    if "repro" not in parts:
        return None
    index = parts.index("repro")
    remainder = parts[index + 1 :]
    if len(remainder) < 2:
        return None  # top-level modules like repro/cli.py
    return remainder[0]


def parse_source(path: Path, relpath: str) -> SourceFile:
    """Parse one file into a :class:`SourceFile`.

    Never raises on bad input: a syntax error leaves ``tree`` ``None``
    (one E001 finding), and a file that cannot be read or decoded at all
    sets ``read_error`` (one E002 finding) — a single broken file must
    cost one finding, not the whole run.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except (UnicodeDecodeError, OSError) as exc:
        reason = (
            "not valid UTF-8" if isinstance(exc, UnicodeDecodeError) else str(exc)
        )
        return SourceFile(
            path=path,
            relpath=relpath,
            tree=None,
            symbols=SymbolTable(),
            suppressions=SuppressionIndex(),
            layer=_classify_layer(relpath),
            read_error=reason,
        )
    try:
        tree: Optional[ast.Module] = ast.parse(text, filename=str(path))
    except SyntaxError:
        tree = None
    symbols = build_symbol_table(tree) if tree is not None else SymbolTable()
    return SourceFile(
        path=path,
        relpath=relpath,
        tree=tree,
        symbols=symbols,
        suppressions=scan_suppressions(text.splitlines()),
        layer=_classify_layer(relpath),
    )


class Project:
    """The lint run's view of the repository."""

    def __init__(self, config: LintConfig, files: List[SourceFile]) -> None:
        self.config = config
        self.files = files


def collect_files(config: LintConfig) -> Tuple[List[Tuple[Path, str]], List[str]]:
    """Expand the configured paths into (path, relpath) pairs.

    Returns the files plus a list of user errors (missing paths).  Results
    are sorted by relpath so runs are order-independent of the filesystem.
    """
    root = config.project_root
    errors: List[str] = []
    seen: Dict[str, Path] = {}
    for entry in config.paths:
        path = Path(entry)
        if not path.is_absolute():
            path = root / path
        if path.is_file():
            candidates = [path]
        elif path.is_dir():
            candidates = sorted(p for p in path.rglob("*.py") if p.is_file())
        else:
            errors.append(f"lint path not found: {entry}")
            continue
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            try:
                relpath = candidate.resolve().relative_to(root).as_posix()
            except ValueError:
                relpath = candidate.as_posix()
            seen.setdefault(relpath, candidate)
    return [(seen[relpath], relpath) for relpath in sorted(seen)], errors


@dataclass
class LintReport:
    """Everything one run produced, pre-partitioned for reporting."""

    config: LintConfig
    files_checked: int
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    rules_run: Tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        if any(f.severity is Severity.ERROR for f in self.findings):
            return 1
        return 0


def run_lint(config: LintConfig) -> LintReport:
    """Execute one lint run under *config* and return the report."""
    try:
        rules = [
            rule_class()
            for rule_class in select_rules(RULES, config.select, config.ignore)
        ]
    except UnknownRuleError as exc:
        return LintReport(config=config, files_checked=0, errors=[str(exc)])
    pairs, errors = collect_files(config)
    files = [parse_source(path, relpath) for path, relpath in pairs]
    project = Project(config, files)

    selected_ids = {rule_instance.id for rule_instance in rules}
    findings: List[Finding] = []
    for source in files:
        if source.read_error is not None:
            if "E002" in selected_ids:
                findings.append(
                    Finding(
                        rule="E002",
                        severity=Severity.ERROR,
                        path=source.relpath,
                        line=0,
                        col=0,
                        message=f"file could not be read: {source.read_error}",
                    )
                )
        elif source.tree is None and "E001" in selected_ids:
            findings.append(
                Finding(
                    rule="E001",
                    severity=Severity.ERROR,
                    path=source.relpath,
                    line=1,
                    col=0,
                    message="file does not parse (syntax error)",
                )
            )

    for rule_instance in rules:
        findings.extend(rule_instance.check(project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    indexes = {source.relpath: source.suppressions for source in files}
    kept, suppressed, used = apply_suppressions_tracked(findings, indexes)

    if "W001" in selected_ids:
        stale = sorted(
            useless_directives(
                files, used, selected_ids, {rule_class.id for rule_class in RULES}
            ),
            key=lambda f: (f.path, f.line, f.col, f.message),
        )
        stale_kept, stale_suppressed = apply_suppressions(stale, indexes)
        kept = sorted(
            [*kept, *stale_kept], key=lambda f: (f.path, f.line, f.col, f.rule)
        )
        suppressed.extend(stale_suppressed)

    return LintReport(
        config=config,
        files_checked=len(files),
        findings=kept,
        suppressed=suppressed,
        errors=errors,
        rules_run=tuple(r.id for r in rules),
    )
