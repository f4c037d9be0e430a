"""T-rules: raw entropy plumbing between functions.

The per-file D101/D102 rules catch a sim-layer module touching ``random``
*directly*; this closes a laundering hole that survives them:

* **T402** — a call under ``src/`` passes a raw ``random.Random`` (or
  ``SystemRandom``) into another function, seeding a parameter no rule can
  see into.  Values drawn from :class:`~repro.sim.rng.RandomStreams` are
  constructed inside the one exempt module and never match either flagged
  shape, so the legal path stays silent.

Entropy reached *through* a helper module (the former T401) is caught at
runtime instead: the test suite's entropy tripwire
(``tests/runtime_guards.py``) raises when a ``random``/``time`` function
runs with a sim-layer frame on the stack.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, List, Set, Tuple

from repro.lint.config import RNG_MODULE_SUFFIX, SRC_ROOT
from repro.lint.framework import FileRule, Finding
from repro.lint.symbols import SymbolTable, walk_runtime

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.engine import Project, SourceFile

#: Constructions of a raw, unregistered random number generator.
_RAW_RANDOM = ("random.Random", "random.SystemRandom")


def raw_random_arguments(
    symbols: SymbolTable, call: ast.Call, local_random_names: Set[str]
) -> List[Tuple[ast.expr, str]]:
    """Arguments of *call* that carry a raw ``random.Random`` instance.

    Catches the two provable shapes: a ``random.Random(...)`` /
    ``random.SystemRandom(...)`` construction inline in argument position,
    and a bare name the enclosing file assigned from one
    (*local_random_names*).
    """
    flagged: List[Tuple[ast.expr, str]] = []
    for arg in [*call.args, *[kw.value for kw in call.keywords]]:
        if isinstance(arg, ast.Call):
            dotted = symbols.qualname(arg.func)
            if dotted in _RAW_RANDOM:
                flagged.append((arg, dotted))
        elif isinstance(arg, ast.Name) and arg.id in local_random_names:
            flagged.append((arg, "random.Random"))
    return flagged


def local_raw_random_names(symbols: SymbolTable, tree: ast.AST) -> Set[str]:
    """Names assigned a raw ``random.Random`` anywhere in *tree*."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        if symbols.qualname(node.value.func) in _RAW_RANDOM:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


class RawRandomArgumentRule(FileRule):
    id = "T402"
    name = "no-raw-random-argument"
    description = (
        "src/ code must not pass a raw random.Random into a function; seed "
        "through RandomStreams (named streams / spawn_seed)"
    )

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if (
            source.tree is None
            or not source.relpath.startswith(SRC_ROOT + "/")
            or source.relpath.endswith(RNG_MODULE_SUFFIX)
        ):
            return
        # File-level approximation: a name assigned a raw Random anywhere in
        # the file taints that name everywhere in it.  src/ holds no
        # same-name reuse across scopes worth distinguishing, and the
        # approximation only ever errs toward flagging entropy plumbing.
        tainted_names = local_raw_random_names(source.symbols, source.tree)
        for node in walk_runtime(source.tree):
            if not isinstance(node, ast.Call):
                continue
            for arg, dotted in raw_random_arguments(source.symbols, node, tainted_names):
                target = source.symbols.qualname(node.func) or "a call"
                if dotted == target or (dotted + ".").startswith(target + "."):
                    continue  # the construction itself, not an argument leak
                yield self.finding(
                    source,
                    arg,
                    f"raw {dotted} passed into {target}(); accept a "
                    "RandomStreams stream (or a spawn_seed) instead so the "
                    "draw order stays reproducible",
                )
