"""L-rules: store lock discipline across call paths.

The PR-6 store rework made :class:`~repro.results.store.RunStore` safe for
concurrent writers by funnelling every mutation through a flock'd append
path — a property stated in prose and guarded only by crash tests that
fork real processes.  These rules hold it statically:

* **L501** — every write/rename/truncate call in the store module must be
  *dominated* by the store lock: lexically inside a matching ``with``
  block, or in a function every resolved caller of which enters locked
  (computed as a fixpoint over the call graph).  Functions with unknown
  callers count as unlocked — if anyone could call it without the lock,
  the write is flagged.
* **L502** — a function handed to a multiprocessing dispatch under
  ``src/`` must be a plain module-level function that cannot reach a store
  method: a bound method or closure would capture an open store handle
  (buffered file positions, the advisory lock fd) across the fork
  boundary.  Records are appended by the parent alone, as the workers'
  results stream in.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from repro.lint.callgraph import CallGraph, CallSite, FunctionInfo, chain_text
from repro.lint.config import (
    SRC_ROOT,
    STORE_CLASSES,
    STORE_LOCK_CLASSES,
    STORE_LOCK_NAMES,
    STORE_MODULE_SUFFIX,
)
from repro.lint.dataflow import lock_dominated, resolve_call_qualname, site_locked
from repro.lint.framework import Finding, GraphRule

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.engine import Project

#: Method-call suffixes that mutate files/directories when the receiver is
#: a handle or path (the store module's receivers always are).
_WRITE_SUFFIXES = (
    ".write",
    ".writelines",
    ".truncate",
    ".write_text",
    ".write_bytes",
    ".mkdir",
    ".rename",
    ".replace",
    ".unlink",
    ".rmdir",
    ".touch",
)

#: Fully-resolved callables that mutate the filesystem.
_WRITE_CALLS = frozenset(
    {
        "os.replace",
        "os.rename",
        "os.write",
        "os.truncate",
        "os.ftruncate",
        "os.unlink",
        "os.remove",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "shutil.move",
        "shutil.rmtree",
        "shutil.copy",
        "shutil.copyfile",
    }
)

#: Pool/process dispatch spellings whose argument runs in a forked worker.
_DISPATCH_SUFFIXES = (
    ".imap_unordered",
    ".imap",
    ".map",
    ".map_async",
    ".starmap",
    ".starmap_async",
    ".apply_async",
    ".submit",
)
_DISPATCH_CALLS = frozenset({"multiprocessing.Process", "Process"})


def _worker_argument(call: ast.Call) -> Optional[ast.expr]:
    """The function object a dispatch call ships to the worker process."""
    for keyword in call.keywords:
        if keyword.arg in ("target", "func", "initializer"):
            return keyword.value
    return call.args[0] if call.args else None


def _is_write_site(site: CallSite, dotted: str) -> bool:
    return dotted in _WRITE_CALLS or any(
        site.target_text.endswith(suffix) for suffix in _WRITE_SUFFIXES
    )


class StoreWritesLockedRule(GraphRule):
    id = "L501"
    name = "store-writes-locked"
    description = (
        "every write in the results store must be dominated by the store "
        "lock (lexically or via every resolved caller)"
    )

    def check_graph(self, project: Project, graph: CallGraph) -> Iterator[Finding]:
        dominated = lock_dominated(graph, STORE_LOCK_NAMES)
        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            if not info.relpath.endswith(STORE_MODULE_SUFFIX):
                continue
            if info.class_name in STORE_LOCK_CLASSES:
                continue  # acquiring the lock cannot require holding it
            source = project.find(info.relpath)
            if source is None:  # pragma: no cover - store is in lint scope
                continue
            imports = graph.module_imports.get(info.module, {})
            for site in graph.calls_from(fid):
                dotted = resolve_call_qualname(imports, site.target_text)
                if not _is_write_site(site, dotted):
                    continue
                if site_locked(site, STORE_LOCK_NAMES) or dominated.get(fid, False):
                    continue
                yield self.finding(
                    source,
                    site.node,
                    f"{site.target_text}() in {info.qualname} can run "
                    f"without the store lock ({' / '.join(STORE_LOCK_NAMES)}): not "
                    "inside a lock `with` block, and at least one call path "
                    "into this function enters unlocked",
                )


class NoStoreCaptureAcrossForkRule(GraphRule):
    id = "L502"
    name = "no-store-capture-across-fork"
    description = (
        "multiprocessing workers under src/ must be module-level functions "
        "that cannot reach an open store handle"
    )

    def check_graph(self, project: Project, graph: CallGraph) -> Iterator[Finding]:
        src_prefix = SRC_ROOT + "/"
        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            if not info.relpath.startswith(src_prefix):
                continue
            source = project.find(info.relpath)
            if source is None:  # pragma: no cover - src files are in scope
                continue
            imports = graph.module_imports.get(info.module, {})
            for site in graph.calls_from(fid):
                dotted = resolve_call_qualname(imports, site.target_text)
                is_dispatch = dotted in _DISPATCH_CALLS or any(
                    site.target_text.endswith(s) for s in _DISPATCH_SUFFIXES
                )
                if not is_dispatch:
                    continue
                worker = _worker_argument(site.node)
                if worker is None:
                    continue
                problem = self._judge_worker(graph, info, worker)
                if problem is not None:
                    yield self.finding(
                        source,
                        worker,
                        f"worker handed to {site.target_text}() {problem}; "
                        "pass a module-level function and re-open the store "
                        "in the parent after the pool drains",
                    )

    def _judge_worker(
        self,
        graph: CallGraph,
        caller: FunctionInfo,
        worker: ast.expr,
    ) -> Optional[str]:
        """``None`` when the worker is provably fork-safe, else the problem."""
        if isinstance(worker, ast.Lambda):
            return "is a lambda (closes over the dispatching scope)"
        chain = chain_text(worker)
        if chain is None:
            return None  # not a name; conservatively out of scope
        root, _, rest = chain.partition(".")
        if root == "self":
            decl = graph.classes.get((caller.module, caller.class_name or ""))
            attr_types = decl.attr_types if decl is not None else {}
            holds_store = any(
                name in STORE_CLASSES for _, name in attr_types.values()
            )
            if holds_store:
                return (
                    "is a bound method of a class holding an open store "
                    "handle (pickling it captures the handle across the fork)"
                )
            return "is a bound method (captures self across the fork boundary)"
        nested = f"{caller.relpath}::{caller.qualname}.{chain}"
        if not rest and nested in graph.functions:
            return "is a nested function (closes over the dispatching scope)"
        target = self._resolve_worker(graph, caller, root, rest)
        if target is None:
            return None  # unresolvable alias: documented conservative gap
        store_methods = {
            fid
            for fid in graph.reachable([target])
            for klass in (graph.functions[fid].class_name,)
            if klass in STORE_CLASSES or klass in STORE_LOCK_CLASSES
        }
        if store_methods:
            sample = graph.functions[sorted(store_methods)[0]]
            return (
                f"transitively calls {sample.qualname}() — store access "
                "belongs to the parent process"
            )
        return None

    @staticmethod
    def _resolve_worker(
        graph: CallGraph, caller: FunctionInfo, root: str, rest: str
    ) -> Optional[str]:
        """Function id a worker Name/dotted reference points at, if known."""
        imports = graph.module_imports.get(caller.module, {})
        if not rest:
            same_module = f"{caller.relpath}::{root}"
            if same_module in graph.functions:
                return same_module
            origin = imports.get(root)
        else:
            base = imports.get(root)
            origin = f"{base}.{rest}" if base else None
        if origin is None:
            return None
        module, _, name = origin.rpartition(".")
        relpath = graph.modules.get(module)
        if relpath is None:
            return None
        candidate = f"{relpath}::{name}"
        return candidate if candidate in graph.functions else None
