"""Project-wide resolved call graph over the per-file symbol tables.

The per-file pass (:mod:`repro.lint.symbols`) answers "what does this name
mean *in this file*"; this module stitches those answers into one graph so
rules can ask cross-file questions: "can this sim-layer function reach
stdlib entropy through any chain of helpers?" (T-rules), "is this store
write always dominated by a lock acquisition?" (L-rules).

Resolution is deliberately **conservative**: an edge is only recorded when
the callee provably is the named project function.  Everything dynamic —
``functools.partial`` application, ``getattr`` lookups, bound-method
aliases, calls through values of unknown type — is recorded as an
*unresolved* call site with a reason, never guessed into a false edge.
Receiver types are inferred for the cheap, common shapes only:

* ``self.method()`` and ``self.attr.method()`` inside a class (instance
  attribute types come from ``self.attr = ClassName(...)`` assignments);
* module attributes holding instances (``REGISTRY = ComponentRegistry()``
  then ``REGISTRY.register(...)``, from any importing file);
* locals assigned exactly one project-class construction
  (``cache = DataCache(); cache.add(...)``) and parameters annotated with a
  project class.

Construction is memoised per lint run
(:meth:`repro.lint.engine.Project.callgraph`), so the graph is built at
most once no matter how many rules consume it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.config import SRC_ROOT
from repro.lint.symbols import _is_type_checking_test

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.engine import Project, SourceFile

#: Qualname of the pseudo-function holding module-level statements.
MODULE_SCOPE = "<module>"

#: ``functools.partial`` spellings whose first argument is *not* called here.
_PARTIAL_QUALNAMES = ("functools.partial", "partial")


@dataclass
class FunctionInfo:
    """One function/method definition (or the module-level pseudo scope)."""

    id: str  # "<relpath>::<qualname>"
    relpath: str
    module: str  # dotted module path ("repro.results.store", "tests.lint.x")
    qualname: str  # "Class.method", "outer.inner", "<module>"
    name: str
    class_name: Optional[str]
    node: Optional[ast.AST]  # the def node; the Module node for MODULE_SCOPE
    lineno: int
    layer: Optional[str]
    is_decorated: bool = False

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class CallSite:
    """One call expression inside one function scope."""

    caller: str  # FunctionInfo id
    callee: Optional[str]  # resolved FunctionInfo id, or None
    node: ast.Call
    target_text: str  # best-effort dotted rendering of the callee expr
    reason: Optional[str] = None  # why the callee is unresolved
    lock_contexts: Tuple[str, ...] = ()  # `with` expressions enclosing the site

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)


@dataclass
class ClassDecl:
    """What the graph knows about one project class."""

    module: str
    name: str
    relpath: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)  # name -> function id
    bases: Tuple[str, ...] = ()  # base expressions as written
    attr_types: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    # ``self.x = ClassName(...)`` anywhere in the body -> x: (module, class)


class CallGraph:
    """Functions, resolved call edges, and the documented unresolved rest."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[Tuple[str, str], ClassDecl] = {}  # (module, name)
        self.calls: List[CallSite] = []
        self.out_edges: Dict[str, List[CallSite]] = {}
        self.in_edges: Dict[str, List[CallSite]] = {}
        self.unresolved: List[CallSite] = []
        self.modules: Dict[str, str] = {}  # dotted module -> relpath
        #: module -> attribute name -> (module, class) of the instance it holds.
        self.module_attr_types: Dict[str, Dict[str, Tuple[str, str]]] = {}
        #: per-module import tables (module -> local name -> dotted origin).
        self.module_imports: Dict[str, Dict[str, str]] = {}

    # ------------------------------------------------------------ queries

    def function(self, relpath: str, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(f"{relpath}::{qualname}")

    def callers_of(self, function_id: str) -> List[CallSite]:
        return self.in_edges.get(function_id, [])

    def calls_from(self, function_id: str) -> List[CallSite]:
        return self.out_edges.get(function_id, [])

    def reachable(self, seeds: Sequence[str], reverse: bool = False) -> Set[str]:
        """Function ids reachable from *seeds* along resolved edges.

        Forward (``reverse=False``) follows calls outward ("what can these
        functions reach"); ``reverse=True`` follows callers inward ("what
        can reach these functions").  Seeds are included.
        """
        edges = self.in_edges if reverse else self.out_edges
        seen: Set[str] = set()
        pending = [seed for seed in seeds if seed in self.functions]
        while pending:
            current = pending.pop()
            if current in seen:
                continue
            seen.add(current)
            for site in edges.get(current, ()):
                neighbour = site.caller if reverse else site.callee
                if neighbour is not None and neighbour not in seen:
                    pending.append(neighbour)
        return seen

    def resolve_class(self, module: str, name: str, _depth: int = 0) -> Optional[ClassDecl]:
        """The project class ``module.name`` names, following import re-binds.

        ``node_base.DataCache`` where ``node_base`` does ``from cache import
        DataCache`` resolves to the class defined in ``cache``; chains deeper
        than a few hops (or cycles) resolve to ``None``.
        """
        if _depth > 8:
            return None
        decl = self.classes.get((module, name))
        if decl is not None:
            return decl
        origin = self.module_imports.get(module, {}).get(name)
        if origin is None:
            return None
        origin_module, _, origin_name = origin.rpartition(".")
        if not origin_module:
            return None
        return self.resolve_class(origin_module, origin_name, _depth + 1)

    def resolve_method(
        self, decl: ClassDecl, method: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[str]:
        """Function id of *method* on *decl*, searching project bases too."""
        seen = _seen if _seen is not None else set()
        if (decl.module, decl.name) in seen:
            return None
        seen.add((decl.module, decl.name))
        if method in decl.methods:
            return decl.methods[method]
        for base in decl.bases:
            base_decl = self._resolve_base(decl, base)
            if base_decl is not None:
                found = self.resolve_method(base_decl, method, seen)
                if found is not None:
                    return found
        return None

    def _resolve_base(self, decl: ClassDecl, base: str) -> Optional[ClassDecl]:
        imports = self.module_imports.get(decl.module, {})
        head, _, rest = base.partition(".")
        if rest:  # ``module_alias.Base``
            origin = imports.get(head)
            if origin is None:
                return None
            module, _, name = f"{origin}.{rest}".rpartition(".")
            return self.resolve_class(module, name) if module else None
        if head in imports:
            module, _, name = imports[head].rpartition(".")
            return self.resolve_class(module, name) if module else None
        return self.classes.get((decl.module, head))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dump used by ``repro lint --graph-debug``."""
        edges = sorted(
            (site.caller, site.callee, site.lineno, site.lock_contexts)
            for site in self.calls
            if site.callee is not None
        )
        unresolved = sorted(
            (site.caller, site.target_text, site.lineno, site.reason or "unresolved")
            for site in self.unresolved
        )
        return {
            "functions": sorted(self.functions),
            "edges": [
                {"caller": c, "callee": e, "line": line, "locks": list(locks)}
                for c, e, line, locks in edges
            ],
            "unresolved": [
                {"caller": c, "target": t, "line": line, "reason": reason}
                for c, t, line, reason in unresolved
            ],
            "counts": {
                "functions": len(self.functions),
                "resolved_edges": sum(1 for s in self.calls if s.callee is not None),
                "unresolved_calls": len(self.unresolved),
            },
        }


def module_name(relpath: str, src_root: str = "src") -> str:
    """Dotted module path of *relpath* (``src/repro/x.py`` -> ``repro.x``)."""
    parts = list(relpath.split("/"))
    if parts and parts[0] == src_root:
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def chain_text(node: ast.expr) -> Optional[str]:
    """Dotted source rendering of a Name/Attribute chain (``self._lock``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_with_contexts(
    root: ast.AST, enter_defs: bool = False
) -> Iterator[Tuple[ast.AST, Tuple[str, ...]]]:
    """Yield ``(node, with_contexts)`` for every runtime node under *root*.

    ``with_contexts`` is the tuple of dotted renderings of every ``with``
    item expression lexically enclosing the node (outermost first); the
    L-rules match these against the configured lock names.  Bodies of
    nested function/class definitions are skipped unless *enter_defs* (they
    run in their own scope, under their own contexts) — the def nodes
    themselves are still yielded.  ``if TYPE_CHECKING:`` bodies never run
    and are always skipped.
    """
    pending: List[Tuple[ast.AST, Tuple[str, ...], bool]] = [(root, (), True)]
    while pending:
        node, contexts, expand = pending.pop()
        yield node, contexts
        if not expand:
            continue
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            pending.extend((child, contexts, True) for child in node.orelse)
            continue
        if isinstance(node, (ast.With, ast.AsyncWith)):
            entered = contexts + tuple(
                text
                for item in node.items
                if (
                    text := chain_text(
                        item.context_expr.func
                        if isinstance(item.context_expr, ast.Call)
                        else item.context_expr
                    )
                )
                is not None
            )
            for item in node.items:
                pending.append((item.context_expr, contexts, True))
            pending.extend((child, entered, True) for child in node.body)
            continue
        for child in ast.iter_child_nodes(node):
            nested_def = not enter_defs and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            pending.append((child, contexts, not nested_def))


class _Builder:
    """Two-pass construction: declarations first, then call resolution."""

    def __init__(self, project: "Project") -> None:
        self.project = project
        self.graph = CallGraph()
        self.src_root = SRC_ROOT
        self._sources: List["SourceFile"] = [
            source for source in project.files if source.tree is not None
        ]
        #: Calls owned by each function scope: id -> [(Call, contexts)].
        self._scope_calls: Dict[str, List[Tuple[ast.Call, Tuple[str, ...]]]] = {}

    def build(self) -> CallGraph:
        for source in self._sources:
            self._declare_file(source)
        for source in self._sources:
            self._infer_attribute_types(source)
        for source in self._sources:
            self._resolve_file(source)
        return self.graph

    # ------------------------------------------------------- declarations

    def _declare_file(self, source: "SourceFile") -> None:
        graph = self.graph
        module = module_name(source.relpath, self.src_root)
        graph.modules[module] = source.relpath
        graph.module_imports[module] = dict(source.symbols.imports)
        graph.functions[f"{source.relpath}::{MODULE_SCOPE}"] = FunctionInfo(
            id=f"{source.relpath}::{MODULE_SCOPE}",
            relpath=source.relpath,
            module=module,
            qualname=MODULE_SCOPE,
            name=MODULE_SCOPE,
            class_name=None,
            node=source.tree,
            lineno=0,
            layer=source.layer,
        )

        def declare(
            body: Sequence[ast.stmt], prefix: str, class_decl: Optional[ClassDecl]
        ) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{stmt.name}"
                    info = FunctionInfo(
                        id=f"{source.relpath}::{qualname}",
                        relpath=source.relpath,
                        module=module,
                        qualname=qualname,
                        name=stmt.name,
                        class_name=class_decl.name if class_decl else None,
                        node=stmt,
                        lineno=stmt.lineno,
                        layer=source.layer,
                        is_decorated=bool(stmt.decorator_list),
                    )
                    graph.functions[info.id] = info
                    if class_decl is not None:
                        class_decl.methods.setdefault(stmt.name, info.id)
                    declare(stmt.body, f"{qualname}.", None)
                elif isinstance(stmt, ast.ClassDef):
                    decl = ClassDecl(
                        module=module,
                        name=stmt.name,
                        relpath=source.relpath,
                        node=stmt,
                        bases=tuple(
                            text
                            for base in stmt.bases
                            if (text := chain_text(base)) is not None
                        ),
                    )
                    graph.classes.setdefault((module, stmt.name), decl)
                    declare(stmt.body, f"{stmt.name}.", decl)
                elif isinstance(stmt, ast.If):
                    if _is_type_checking_test(stmt.test):
                        declare(stmt.orelse, prefix, class_decl)
                    else:
                        declare(stmt.body, prefix, class_decl)
                        declare(stmt.orelse, prefix, class_decl)
                elif isinstance(stmt, ast.Try):
                    declare(stmt.body, prefix, class_decl)
                    for handler in stmt.handlers:
                        declare(handler.body, prefix, class_decl)
                    declare(stmt.orelse, prefix, class_decl)
                    declare(stmt.finalbody, prefix, class_decl)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    declare(stmt.body, prefix, class_decl)

        declare(source.tree.body, "", None)

    def _infer_attribute_types(self, source: "SourceFile") -> None:
        """Second declaration sweep: instance/module attribute types.

        Runs after every class in the project is declared, so an attribute
        assigned a class constructed from *any* module resolves.
        """
        module = module_name(source.relpath, self.src_root)
        for (decl_module, _name), decl in self.graph.classes.items():
            if decl_module != module or decl.relpath != source.relpath:
                continue
            for node in ast.walk(decl.node):
                if not isinstance(node, ast.Assign):
                    continue
                typed = self._constructed_class(source, node.value)
                if typed is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        decl.attr_types.setdefault(target.attr, typed)
        table = self.graph.module_attr_types.setdefault(module, {})
        for stmt in source.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            typed = self._constructed_class(source, stmt.value)
            if typed is None:
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    table.setdefault(target.id, typed)

    def _dotted_class(self, source: "SourceFile", chain: str) -> Optional[Tuple[str, str]]:
        """``(module, class)`` when *chain* names a project class here."""
        root, _, rest = chain.partition(".")
        origin = source.symbols.imports.get(root, root)
        dotted = f"{origin}.{rest}" if rest else origin
        module, _, name = dotted.rpartition(".")
        if module and (module, name) in self.graph.classes:
            return module, name
        own_module = module_name(source.relpath, self.src_root)
        if not rest and (own_module, chain) in self.graph.classes:
            return own_module, chain
        return None

    def _constructed_class(
        self, source: "SourceFile", value: ast.expr
    ) -> Optional[Tuple[str, str]]:
        """``(module, class)`` when *value* is ``ProjectClass(...)``."""
        if not isinstance(value, ast.Call):
            return None
        chain = chain_text(value.func)
        return self._dotted_class(source, chain) if chain else None

    # --------------------------------------------------------- resolution

    def _resolve_file(self, source: "SourceFile") -> None:
        self._scope_calls = {}
        module = module_name(source.relpath, self.src_root)
        self._assign_ownership(source)
        for owner_id, calls in self._scope_calls.items():
            info = self.graph.functions[owner_id]
            locals_view = self._scope_locals(source, info)
            for node, contexts in calls:
                self._resolve_call(source, module, info, node, contexts, locals_view)

    def _assign_ownership(self, source: "SourceFile") -> None:
        """One traversal attributing every Call to its innermost function.

        Module-level statements, class bodies and decorator expressions of
        nested defs run at import time and belong to the ``<module>`` scope;
        a def's own decorators are attributed to the def itself so "this
        function is registered/wrapped by X" shows as an edge from it.
        """
        module_id = f"{source.relpath}::{MODULE_SCOPE}"

        def visit(node: ast.AST, owner: str, prefix: str, contexts: Tuple[str, ...]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                own_id = f"{source.relpath}::{qualname}"
                if own_id not in self.graph.functions:  # defs in odd spots
                    own_id = owner
                    own_prefix = prefix
                else:
                    own_prefix = f"{qualname}."
                for decorator in node.decorator_list:
                    visit(decorator, own_id, own_prefix, ())
                for default in [*node.args.defaults, *node.args.kw_defaults]:
                    if default is not None:
                        visit(default, owner, prefix, contexts)
                for stmt in node.body:
                    visit(stmt, own_id, own_prefix, ())
                return
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    visit(decorator, owner, prefix, contexts)
                for stmt in node.body:
                    visit(stmt, owner, f"{prefix}{node.name}.", contexts)
                return
            if isinstance(node, ast.If) and _is_type_checking_test(node.test):
                for stmt in node.orelse:
                    visit(stmt, owner, prefix, contexts)
                return
            if isinstance(node, (ast.With, ast.AsyncWith)):
                entered = contexts + tuple(
                    text
                    for item in node.items
                    if (
                        text := chain_text(
                            item.context_expr.func
                            if isinstance(item.context_expr, ast.Call)
                            else item.context_expr
                        )
                    )
                    is not None
                )
                for item in node.items:
                    visit(item.context_expr, owner, prefix, contexts)
                for stmt in node.body:
                    visit(stmt, owner, prefix, entered)
                return
            if isinstance(node, ast.Call):
                self._scope_calls.setdefault(owner, []).append((node, contexts))
            for child in ast.iter_child_nodes(node):
                visit(child, owner, prefix, contexts)

        for stmt in source.tree.body:
            visit(stmt, module_id, "", ())

    # -- per-scope local environment ------------------------------------

    def _scope_locals(self, source: "SourceFile", info: FunctionInfo) -> Dict[str, object]:
        scope = info.node
        is_function = isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        return {
            "types": self._local_types(source, scope) if is_function else {},
            "defs": {
                stmt.name
                for stmt in getattr(scope, "body", ())
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if is_function
            else set(),
            "assigned": self._assigned_names(scope) if is_function else set(),
        }

    @staticmethod
    def _assigned_names(func: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            names.add(leaf.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for leaf in ast.walk(node.target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
            elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        for leaf in ast.walk(item.optional_vars):
                            if isinstance(leaf, ast.Name):
                                names.add(leaf.id)
        return names

    def _local_types(
        self, source: "SourceFile", func: ast.AST
    ) -> Dict[str, Tuple[str, str]]:
        """Locals (and annotated params) with exactly one inferred class."""
        types: Dict[str, Tuple[str, str]] = {}
        poisoned: Set[str] = set()
        args = getattr(func, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None:
                    typed = self._annotation_class(source, arg.annotation)
                    if typed is not None:
                        types[arg.arg] = typed
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                typed = self._constructed_class(source, node.value)
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if typed is None:
                        poisoned.add(target.id)
                    elif types.setdefault(target.id, typed) != typed:
                        poisoned.add(target.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                poisoned.add(node.target.id)
        return {name: typed for name, typed in types.items() if name not in poisoned}

    def _annotation_class(
        self, source: "SourceFile", annotation: ast.expr
    ) -> Optional[Tuple[str, str]]:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        chain = chain_text(annotation)
        if chain is None:
            return None
        # Annotation-only imports count here: a parameter annotated with a
        # TYPE_CHECKING-imported class still types the receiver.
        root, _, rest = chain.partition(".")
        origin = source.symbols.imports.get(
            root, source.symbols.type_checking_imports.get(root, root)
        )
        dotted = f"{origin}.{rest}" if rest else origin
        module, _, name = dotted.rpartition(".")
        if module and (module, name) in self.graph.classes:
            return module, name
        own_module = module_name(source.relpath, self.src_root)
        if not rest and (own_module, chain) in self.graph.classes:
            return own_module, chain
        return None

    # -- a single call ---------------------------------------------------

    def _resolve_call(
        self,
        source: "SourceFile",
        module: str,
        info: FunctionInfo,
        node: ast.Call,
        contexts: Tuple[str, ...],
        locals_view: Dict[str, object],
    ) -> None:
        graph = self.graph
        local_types: Dict[str, Tuple[str, str]] = locals_view["types"]  # type: ignore[assignment]
        local_defs: Set[str] = locals_view["defs"]  # type: ignore[assignment]
        local_assigned: Set[str] = locals_view["assigned"]  # type: ignore[assignment]
        func = node.func
        chain = chain_text(func)
        target_text = chain or type(func).__name__

        def record(callee: Optional[str], reason: Optional[str] = None) -> None:
            site = CallSite(
                caller=info.id,
                callee=callee,
                node=node,
                target_text=target_text,
                reason=reason,
                lock_contexts=contexts,
            )
            graph.calls.append(site)
            graph.out_edges.setdefault(info.id, []).append(site)
            if callee is not None:
                graph.in_edges.setdefault(callee, []).append(site)
            else:
                graph.unresolved.append(site)

        if isinstance(func, ast.Call):
            inner = chain_text(func.func)
            record(
                None,
                reason="dynamic getattr lookup"
                if inner == "getattr"
                else "call on a call result",
            )
            return
        if isinstance(func, ast.Lambda):
            record(None, reason="immediate lambda call")
            return
        if chain is None:
            record(None, reason="callee is not a name/attribute chain")
            return

        parts = chain.split(".")
        root, attrs = parts[0], parts[1:]
        resolved_root = source.symbols.imports.get(root, root)
        dotted = ".".join([resolved_root, *attrs])
        # ``functools.partial(f, ...)`` never calls ``f`` here, and whoever
        # finally invokes the partial is invisible statically: document the
        # application as unresolved instead of inventing (or dropping) edges.
        if dotted in _PARTIAL_QUALNAMES and root not in local_assigned:
            record(None, reason="partial application: target called later, elsewhere")
            return
        if dotted == "getattr":
            record(None, reason="dynamic getattr lookup")
            return

        if not attrs:
            if root in local_defs:
                callee = f"{source.relpath}::{info.qualname}.{root}"
                if callee in graph.functions:
                    record(callee)
                else:  # pragma: no cover - defs are declared from the body
                    record(None, reason="nested def not declared")
                return
            if root in local_assigned and root not in source.symbols.imports:
                record(None, reason="callee held in a local variable (alias)")
                return
            if root in source.symbols.imports:
                self._record_dotted(record, source.symbols.imports[root], [])
                return
            callee = f"{source.relpath}::{root}"
            if callee in graph.functions:
                record(callee)
                return
            if (module, root) in graph.classes:
                self._record_constructor(record, module, root)
                return
            record(None, reason="builtin or external callee")
            return

        if root == "self" and info.class_name is not None:
            decl = graph.classes.get((module, info.class_name))
            if decl is None:  # pragma: no cover - enclosing class is declared
                record(None, reason="enclosing class not declared")
                return
            if len(attrs) == 1:
                callee = graph.resolve_method(decl, attrs[0])
                record(
                    callee,
                    None if callee else "method not found on class or project bases",
                )
                return
            typed = decl.attr_types.get(attrs[0])
            if typed is not None and len(attrs) == 2:
                self._record_method(record, typed, attrs[1])
                return
            record(None, reason="untyped instance attribute receiver")
            return

        if root in local_types:
            if len(attrs) == 1:
                self._record_method(record, local_types[root], attrs[0])
            else:
                record(None, reason="attribute chain through a typed local")
            return

        if root in local_assigned and root not in source.symbols.imports:
            record(None, reason="untyped local receiver")
            return

        if root in source.symbols.imports:
            self._record_dotted(record, source.symbols.imports[root], attrs)
            return

        if (module, root) in graph.classes and len(attrs) == 1:
            callee = graph.resolve_method(graph.classes[(module, root)], attrs[0])
            record(callee, None if callee else "method not found on class")
            return

        module_attrs = graph.module_attr_types.get(module, {})
        if root in module_attrs and len(attrs) == 1:
            self._record_method(record, module_attrs[root], attrs[0])
            return

        record(None, reason="unknown receiver type")

    def _record_method(self, record, typed: Tuple[str, str], method: str) -> None:
        decl = self.graph.classes.get(typed)
        if decl is None:  # pragma: no cover - inferred types come from classes
            record(None, reason="receiver class not declared")
            return
        callee = self.graph.resolve_method(decl, method)
        record(callee, None if callee else "method not found on inferred receiver class")

    def _record_constructor(self, record, module: str, class_name: str) -> None:
        decl = self.graph.resolve_class(module, class_name)
        if decl is None:
            record(None, reason="constructor of undeclared class")
            return
        callee = self.graph.resolve_method(decl, "__init__")
        record(callee, None if callee else "constructor without a project __init__")

    def _record_dotted(self, record, origin: str, attrs: List[str]) -> None:
        """Resolve ``origin`` (a dotted import target) plus trailing *attrs*."""
        graph = self.graph
        parts = origin.split(".") + attrs
        # Longest known module prefix wins; the remainder resolves inside it.
        for split in range(len(parts), 0, -1):
            candidate = ".".join(parts[:split])
            if candidate not in graph.modules:
                continue
            remainder = parts[split:]
            relpath = graph.modules[candidate]
            if not remainder:
                record(None, reason="module object called")
                return
            if len(remainder) == 1:
                name = remainder[0]
                callee = f"{relpath}::{name}"
                if callee in graph.functions:
                    record(callee)
                    return
                if (candidate, name) in graph.classes:
                    self._record_constructor(record, candidate, name)
                    return
                re_export = graph.module_imports.get(candidate, {}).get(name)
                if re_export is not None:
                    self._record_dotted(record, re_export, [])
                    return
                record(None, reason=f"no function/class {name!r} in {candidate}")
                return
            if len(remainder) == 2:
                class_name, method = remainder
                decl = graph.resolve_class(candidate, class_name)
                if decl is not None:
                    callee = graph.resolve_method(decl, method)
                    record(callee, None if callee else "method not found on class")
                    return
                typed = graph.module_attr_types.get(candidate, {}).get(class_name)
                if typed is not None:
                    self._record_method(record, typed, method)
                    return
                record(None, reason=f"no class/instance {class_name!r} in {candidate}")
                return
            record(None, reason="attribute chain too deep to resolve")
            return
        record(None, reason="external module")


def build_callgraph(project: "Project") -> CallGraph:
    """Construct the resolved call graph over every parsed in-scope file."""
    return _Builder(project).build()
