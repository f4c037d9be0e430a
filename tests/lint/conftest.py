"""Shared fixtures: throwaway lint projects built from code snippets."""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, Optional, Sequence

import pytest

from repro.lint import LintConfig, LintReport, run_lint


class SnippetProject:
    """A temp directory shaped like this repository, lintable per-snippet."""

    def __init__(self, root: Path) -> None:
        self.root = root
        (root / "pyproject.toml").write_text("[project]\nname = 'fixture'\n")

    def write(self, relpath: str, code: str) -> Path:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code))
        return path

    def lint(
        self,
        paths: Sequence[str] = ("src",),
        select: Sequence[str] = (),
        ignore: Sequence[str] = (),
    ) -> LintReport:
        config = LintConfig(
            project_root=self.root,
            paths=tuple(paths),
            select=tuple(select),
            ignore=tuple(ignore),
        )
        return run_lint(config)

    def lint_snippet(
        self,
        code: str,
        relpath: str = "src/repro/core/snippet.py",
        select: Sequence[str] = (),
        extra_files: Optional[Dict[str, str]] = None,
    ) -> LintReport:
        """Write one sim-layer snippet (plus extras) and lint ``src/``."""
        self.write(relpath, code)
        for extra_relpath, extra_code in (extra_files or {}).items():
            self.write(extra_relpath, extra_code)
        return self.lint(select=select)


@pytest.fixture
def project(tmp_path) -> SnippetProject:
    return SnippetProject(tmp_path)


def rule_ids(report: LintReport) -> list:
    return [finding.rule for finding in report.findings]
