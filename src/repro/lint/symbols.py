"""The shared per-file resolved-import/symbol pass.

Every file is parsed once and walked once; the resulting
:class:`SymbolTable` is attached to the file and shared by all rules, so a
run's cost is one AST pass plus cheap per-rule lookups.

The table resolves local names to dotted origins through the import graph of
the file itself (``import random`` binds ``random`` -> ``random``;
``from datetime import datetime as dt`` binds ``dt`` ->
``datetime.datetime``), which lets rules ask "what does this attribute chain
*mean*" (:meth:`SymbolTable.qualname`) instead of string-matching source
text.  Imports under ``if TYPE_CHECKING:`` never execute, so they are not
recorded and do not count as runtime use of a module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


@dataclass
class SymbolTable:
    """Resolved imports of one module."""

    #: local name -> dotted origin, runtime imports only.
    imports: Dict[str, str] = field(default_factory=dict)
    #: top-level module names imported at runtime ("random", "os.path", ...).
    imported_modules: Set[str] = field(default_factory=set)

    def qualname(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, or ``None``.

        ``time.perf_counter`` resolves to ``"time.perf_counter"`` when the
        file ran ``import time``; with ``from time import perf_counter`` the
        bare name resolves the same way.  Chains rooted in anything other
        than a resolvable name (calls, subscripts) resolve to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _is_type_checking_test(test: ast.expr) -> bool:
    """Whether an ``if`` test is the ``TYPE_CHECKING`` idiom."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


class _SymbolVisitor(ast.NodeVisitor):
    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self._type_checking_depth = 0

    # ------------------------------------------------------------- imports

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            origin = alias.name if alias.asname else alias.name.split(".")[0]
            self._bind(local, origin, top_module=alias.name.split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            origin = f"{module}.{alias.name}" if module else alias.name
            self._bind(local, origin, top_module=module.split(".")[0] if module else None)

    def _bind(self, local: str, origin: str, top_module: Optional[str]) -> None:
        if self._type_checking_depth:
            return
        self.table.imports[local] = origin
        if top_module:
            self.table.imported_modules.add(top_module)

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._type_checking_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self._type_checking_depth -= 1
            for stmt in node.orelse:
                self.visit(stmt)
            return
        self.generic_visit(node)


def build_symbol_table(tree: ast.Module) -> SymbolTable:
    """Run the one-pass symbol/import analysis over a parsed module."""
    table = SymbolTable()
    _SymbolVisitor(table).visit(tree)
    return table


def walk_runtime(tree: ast.Module):
    """Like :func:`ast.walk`, but skipping ``if TYPE_CHECKING:`` bodies.

    Code under ``TYPE_CHECKING`` never executes, so imports and calls there
    cannot be a determinism hazard; rules that care about *runtime*
    behaviour walk through this instead of :func:`ast.walk`.
    """
    pending = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            yield node
            pending.extend(node.orelse)
            continue
        yield node
        pending.extend(ast.iter_child_nodes(node))
