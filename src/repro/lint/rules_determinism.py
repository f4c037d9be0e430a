"""D-rules: determinism hazards inside the simulation layers.

The repository's headline contract — byte-identical metrics across
serial/parallel runs and fast-path/oracle pairs — only holds while the
simulation layers draw every random number through the seeded
:class:`repro.sim.rng.RandomStreams`, never read the wall clock, and never
let hash-randomised iteration order feed event scheduling or float
accumulation.  These rules make each hazard a static finding.

Scope: files whose ``repro`` package layer is one of
:data:`repro.lint.config.SIM_LAYERS`.  The orchestration layers
(``experiments``, ``results``, the CLI) time and label real-world runs on
purpose and are exempt, as is ``sim/rng.py`` itself — the single module
allowed to touch stdlib ``random``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, List, Optional, Set, Tuple

from repro.lint.config import RNG_MODULE_SUFFIX, SIM_LAYERS
from repro.lint.framework import FileRule, Finding
from repro.lint.symbols import walk_runtime

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.engine import Project, SourceFile

#: Modules whose very import into a sim layer is a finding: every byte of
#: entropy must flow through the named-stream registry instead.
ENTROPY_MODULES = ("random", "secrets", "uuid")

#: Fully qualified callables that read ambient entropy.
ENTROPY_CALLS = ("os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4")

#: Fully qualified callables that read the wall clock.
WALLCLOCK_CALLS = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
)

#: Callables that consume an iterable order-insensitively; iterating a set
#: into these is safe (``min``/``max``/``sum`` of *ints* would be too, but
#: float accumulation is order-sensitive, so ``sum`` is not exempt).
_ORDER_IMPOSING = ("sorted", "min", "max", "len", "any", "all", "set", "frozenset")

#: Callables that materialise their argument *in iteration order*.
_ORDER_SENSITIVE_CONSUMERS = ("sum", "list", "tuple", "math.fsum", "enumerate")


def _in_scope(source: SourceFile) -> bool:
    if source.layer not in SIM_LAYERS:
        return False
    return not source.relpath.endswith(RNG_MODULE_SUFFIX)


class _SimLayerRule(FileRule):
    """Shared scope filter for the D-family."""

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        if source.tree is None or not _in_scope(source):
            return
        yield from self.check_sim_file(source, project)

    def check_sim_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


class DirectEntropyRule(_SimLayerRule):
    id = "D101"
    name = "direct-entropy"
    description = (
        "sim layers must draw randomness through sim/rng.py RandomStreams, "
        "never stdlib random/secrets/uuid/os.urandom directly"
    )

    def check_sim_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        for node in walk_runtime(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in ENTROPY_MODULES:
                        yield self.finding(
                            source,
                            node,
                            f"direct import of {top!r} in a simulation layer; "
                            "draw through sim/rng.py RandomStreams",
                        )
            elif isinstance(node, ast.ImportFrom):
                top = (node.module or "").split(".")[0]
                if top in ENTROPY_MODULES:
                    yield self.finding(
                        source,
                        node,
                        f"direct import from {top!r} in a simulation layer; "
                        "draw through sim/rng.py RandomStreams",
                    )
            elif isinstance(node, ast.Call):
                qualname = source.symbols.qualname(node.func)
                if qualname in ENTROPY_CALLS:
                    yield self.finding(
                        source,
                        node,
                        f"call to {qualname}() reads ambient entropy; "
                        "derive values from the scenario seed instead",
                    )


class WallClockRule(_SimLayerRule):
    id = "D102"
    name = "wall-clock"
    description = (
        "sim layers must not read the wall clock (time.time, datetime.now, "
        "perf_counter); simulated time is Simulator.now"
    )

    def check_sim_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        call_funcs: Set[int] = set()
        for node in walk_runtime(source.tree):
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
        for node in walk_runtime(source.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    origin = f"{module}.{alias.name}" if module else alias.name
                    if origin in WALLCLOCK_CALLS:
                        yield self.finding(
                            source,
                            node,
                            f"import of wall-clock reader {origin!r} in a "
                            "simulation layer",
                        )
            elif isinstance(node, (ast.Attribute, ast.Name)):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                qualname = source.symbols.qualname(node)
                if qualname in WALLCLOCK_CALLS:
                    via = "call to" if id(node) in call_funcs else "reference to"
                    yield self.finding(
                        source,
                        node,
                        f"{via} wall-clock reader {qualname} in a simulation "
                        "layer; simulated time is Simulator.now",
                    )


def _call_name(node: ast.Call, source: SourceFile) -> Optional[str]:
    return source.symbols.qualname(node.func)


def _is_set_expr(node: ast.expr, source: SourceFile, set_names: Set[str]) -> bool:
    """Whether *node* is syntactically a set (hash-ordered iteration)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _call_name(node, source) in ("set", "frozenset")
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # Set algebra (| & -) of set expressions is still a set.
        return _is_set_expr(node.left, source, set_names) or _is_set_expr(
            node.right, source, set_names
        )
    return False


def _local_set_names(func: ast.AST, source: SourceFile) -> Set[str]:
    """Names assigned a set expression (and never anything else) in *func*."""
    assigned_set: Set[str] = set()
    assigned_other: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            is_set = _is_set_expr(node.value, source, assigned_set)
            for target in targets:
                (assigned_set if is_set else assigned_other).add(target.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            if not isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
                assigned_other.add(node.target.id)
    return assigned_set - assigned_other


class UnsortedSetIterationRule(_SimLayerRule):
    id = "D103"
    name = "unsorted-set-iteration"
    description = (
        "iterating a set in a sim layer is hash-ordered (PYTHONHASHSEED-"
        "dependent for str keys); sort it before it can feed scheduling or "
        "float accumulation"
    )

    def check_sim_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        funcs: List[ast.AST] = [
            node
            for node in ast.walk(source.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scopes: List[Tuple[ast.AST, Set[str]]] = [
            (func, _local_set_names(func, source)) for func in funcs
        ]
        # Module level (rare but possible): no local inference.
        scopes.append((source.tree, set()))
        seen: Set[Tuple[int, int]] = set()

        def emit(node: ast.AST, what: str) -> Iterator[Finding]:
            key = (node.lineno, node.col_offset)
            if key in seen:
                return
            seen.add(key)
            yield self.finding(
                source,
                node,
                f"{what} iterates a set in hash order; wrap it in sorted() "
                "(or iterate a deterministically ordered container)",
            )

        for scope, set_names in scopes:
            # Nested functions are revisited under the enclosing scope too;
            # the (line, col) dedup in emit() keeps each site reported once.
            for node in ast.walk(scope):
                if isinstance(node, ast.For):
                    if _is_set_expr(node.iter, source, set_names):
                        yield from emit(node.iter, "for loop")
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                    for comp in node.generators:
                        if _is_set_expr(comp.iter, source, set_names):
                            yield from emit(comp.iter, "comprehension")
                elif isinstance(node, ast.Call):
                    name = _call_name(node, source)
                    if (
                        name in _ORDER_SENSITIVE_CONSUMERS
                        and node.args
                        and _is_set_expr(node.args[0], source, set_names)
                    ):
                        yield from emit(node.args[0], f"{name}() argument")


def _is_id_or_hash(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("id", "hash")
    if isinstance(node, ast.Lambda):
        return any(
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id in ("id", "hash")
            for inner in ast.walk(node.body)
        )
    return False


class IdentityOrderingRule(_SimLayerRule):
    id = "D104"
    name = "identity-ordering"
    description = (
        "id()/hash() vary across processes and interpreter runs; never use "
        "them as a sort key or in ordering comparisons in sim layers"
    )

    def check_sim_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        for node in walk_runtime(source.tree):
            if isinstance(node, ast.Call):
                name = _call_name(node, source)
                is_sort = name in ("sorted", "min", "max") or (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
                )
                if not is_sort:
                    continue
                for keyword in node.keywords:
                    if keyword.arg == "key" and _is_id_or_hash(keyword.value):
                        yield self.finding(
                            source,
                            keyword.value,
                            "ordering by id()/hash() is process-dependent; "
                            "sort by a stable field instead",
                        )
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
                    if any(
                        isinstance(operand, ast.Call)
                        and isinstance(operand.func, ast.Name)
                        and operand.func.id == "id"
                        for operand in operands
                    ):
                        yield self.finding(
                            source,
                            node,
                            "comparing id() values orders by memory "
                            "address; use a stable field instead",
                        )
