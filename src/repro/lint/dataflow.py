"""Taint/reachability analyses on top of the resolved call graph.

Three analyses, each consumed by one rule family:

* **entropy taint** (T-rules): which functions call stdlib entropy
  directly, and which functions can *reach* one through any chain of
  resolved calls — with a sample chain kept per tainted function so the
  finding can say ``deliver -> _jitter -> random.random``;
* **lock dominance** (L-rules): which functions are only ever entered with
  a configured lock already held, computed as a greatest-fixpoint over the
  caller edges (a call site counts as locked when it sits lexically inside
  a matching ``with`` block, or its caller is itself dominated);
* plain forward/backward reachability re-exported from
  :meth:`repro.lint.callgraph.CallGraph.reachable`.

All of it is conservative in the safe direction for its consumer: taint
only flows along *resolved* edges (an unresolved call never taints), while
lock dominance *breaks* on unresolved entry points (a function anyone
could call unlocked is unlocked).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import MODULE_SCOPE, CallGraph, CallSite
from repro.lint.config import RNG_MODULE_SUFFIX

# Entropy spellings are shared with the per-file D101/D102 rules so the
# taint layer can never drift out of sync with them.
from repro.lint.rules_determinism import ENTROPY_CALLS, ENTROPY_MODULES

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.engine import Project


@dataclass(frozen=True)
class EntropyUse:
    """One direct call to stdlib entropy inside one function scope."""

    function_id: str
    qualname: str  # resolved dotted callee ("random.random", "os.urandom")
    lineno: int


@dataclass(frozen=True)
class TaintChain:
    """Why a function is entropy-tainted: a sample call chain to the use.

    ``links`` runs from the tainted function to the direct user (inclusive);
    ``use`` is the entropy call at the end of it.
    """

    function_id: str
    links: Tuple[str, ...]
    use: EntropyUse

    def render(self, graph: CallGraph) -> str:
        names = []
        for fid in self.links:
            info = graph.functions.get(fid)
            names.append(info.qualname if info is not None else fid)
        tail = f"{self.use.qualname}()"
        return " -> ".join([*names, tail])


def resolve_call_qualname(imports: Dict[str, str], target_text: str) -> str:
    """Dotted origin of a call's rendered target under a file's imports."""
    root, _, rest = target_text.partition(".")
    origin = imports.get(root, root)
    return f"{origin}.{rest}" if rest else origin


def _entropy_qualname(imports: Dict[str, str], site: CallSite) -> Optional[str]:
    dotted = resolve_call_qualname(imports, site.target_text)
    if dotted.split(".", 1)[0] in ENTROPY_MODULES or dotted in ENTROPY_CALLS:
        return dotted
    return None


def direct_entropy_uses(
    project: "Project", graph: CallGraph
) -> Dict[str, List[EntropyUse]]:
    """Functions that call stdlib entropy in their own body.

    The one legal entropy module (``RNG_MODULE_SUFFIX`` — the
    :class:`RandomStreams` registry) is exempt: drawing there *is* the
    deterministic path.
    """
    uses: Dict[str, List[EntropyUse]] = {}
    for fid, info in graph.functions.items():
        if info.relpath.endswith(RNG_MODULE_SUFFIX):
            continue
        imports = graph.module_imports.get(info.module, {})
        for site in graph.calls_from(fid):
            dotted = _entropy_qualname(imports, site)
            if dotted is not None:
                uses.setdefault(fid, []).append(
                    EntropyUse(function_id=fid, qualname=dotted, lineno=site.lineno)
                )
    return uses


def propagate_entropy_taint(
    graph: CallGraph, direct: Dict[str, List[EntropyUse]]
) -> Dict[str, TaintChain]:
    """Backward-propagate entropy taint from direct users to every caller.

    Returns one sample :class:`TaintChain` per tainted function (direct
    users included, with a single-link chain).  BFS order keeps the sample
    chain shortest, so findings read as the tightest laundering path.
    """
    chains: Dict[str, TaintChain] = {}
    frontier: List[str] = []
    for fid, uses in direct.items():
        use = min(uses, key=lambda u: (u.lineno, u.qualname))
        chains[fid] = TaintChain(function_id=fid, links=(fid,), use=use)
        frontier.append(fid)
    while frontier:
        next_frontier: List[str] = []
        for fid in frontier:
            chain = chains[fid]
            for site in graph.callers_of(fid):
                caller = site.caller
                if caller in chains:
                    continue
                chains[caller] = TaintChain(
                    function_id=caller,
                    links=(caller, *chain.links),
                    use=chain.use,
                )
                next_frontier.append(caller)
        frontier = next_frontier
    return chains


def site_locked(site: CallSite, lock_names: Sequence[str]) -> bool:
    """Whether a call site sits lexically inside a configured lock ``with``."""
    return any(ctx in lock_names for ctx in site.lock_contexts)


def lock_dominated(graph: CallGraph, lock_names: Sequence[str]) -> Dict[str, bool]:
    """Greatest fixpoint of "only ever entered with the lock held".

    ``dominated[f]`` is ``True`` when every resolved call into *f* either
    sits inside a matching ``with`` block or comes from a function that is
    itself dominated.  Functions with no resolved callers — public entry
    points, anything reachable only dynamically — are ``False``: if anyone
    *could* call it unlocked, it is not dominated.  Module pseudo-scopes are
    entry points by construction (imports run unlocked).
    """
    names = tuple(lock_names)
    dominated: Dict[str, bool] = {}
    for fid, info in graph.functions.items():
        dominated[fid] = bool(graph.in_edges.get(fid)) and info.qualname != MODULE_SCOPE
    changed = True
    while changed:
        changed = False
        for fid in graph.functions:
            if not dominated[fid]:
                continue
            still = all(
                site_locked(site, names) or dominated.get(site.caller, False)
                for site in graph.in_edges.get(fid, ())
            )
            if not still:
                dominated[fid] = False
                changed = True
    return dominated


def raw_random_arguments(
    source_symbols_imports: Dict[str, str],
    call: ast.Call,
    local_random_names: Set[str],
) -> List[Tuple[ast.expr, str]]:
    """Arguments of *call* that carry a raw ``random.Random`` instance.

    Catches the two provable shapes: a ``random.Random(...)`` /
    ``random.SystemRandom(...)`` construction inline in argument position,
    and a bare name the enclosing function assigned from one
    (*local_random_names*).  Values drawn from :class:`RandomStreams` are
    never of either shape, so they pass untouched.
    """
    flagged: List[Tuple[ast.expr, str]] = []
    for arg in [*call.args, *[kw.value for kw in call.keywords]]:
        if isinstance(arg, ast.Call):
            dotted = _dotted(source_symbols_imports, arg.func)
            if dotted in ("random.Random", "random.SystemRandom"):
                flagged.append((arg, dotted))
        elif isinstance(arg, ast.Name) and arg.id in local_random_names:
            flagged.append((arg, "random.Random"))
    return flagged


def local_raw_random_names(
    source_symbols_imports: Dict[str, str], func: ast.AST
) -> Set[str]:
    """Local names assigned a raw ``random.Random`` anywhere in *func*."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        dotted = _dotted(source_symbols_imports, node.value.func)
        if dotted in ("random.Random", "random.SystemRandom"):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _dotted(imports: Dict[str, str], node: ast.expr) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = imports.get(node.id, node.id)
    return ".".join([root, *reversed(parts)]) if parts else root
