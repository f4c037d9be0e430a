"""T-rules: cross-file entropy taint.

The per-file D101/D102 rules catch a sim-layer module touching ``random``
*directly*; these close the laundering holes that survive them:

* **T401** — a sim-layer function reaches stdlib entropy *transitively*,
  through any chain of resolved calls into helper modules the D-rules do
  not scope (``deliver -> _jitter -> random.random()``).  Flagged at the
  sim-layer function, with the sample chain in the message.
* **T402** — a call under ``src/`` passes a raw ``random.Random`` (or
  ``SystemRandom``) into another function, seeding a parameter no rule can
  see into.  Values drawn from :class:`~repro.sim.rng.RandomStreams` are
  constructed inside the one exempt module and never match either flagged
  shape, so the legal path stays silent.

Taint only flows along resolved edges: an unresolved call never taints, so
every T401 finding comes with a concrete, checkable chain.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lint.callgraph import CallGraph
from repro.lint.config import RNG_MODULE_SUFFIX, SIM_LAYERS, SRC_ROOT
from repro.lint.dataflow import (
    direct_entropy_uses,
    local_raw_random_names,
    propagate_entropy_taint,
    raw_random_arguments,
)
from repro.lint.framework import FileRule, Finding, GraphRule
from repro.lint.symbols import walk_runtime

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.lint.engine import Project, SourceFile


class TransitiveEntropyRule(GraphRule):
    id = "T401"
    name = "no-transitive-entropy"
    description = (
        "sim-layer functions must not reach stdlib entropy through any call "
        "chain; all draws go through RandomStreams"
    )

    def check_graph(self, project: Project, graph: CallGraph) -> Iterator[Finding]:
        direct = direct_entropy_uses(project, graph)
        chains = propagate_entropy_taint(graph, direct)
        for fid in sorted(chains):
            info = graph.functions[fid]
            if info.layer not in SIM_LAYERS:
                continue
            if info.relpath.endswith(RNG_MODULE_SUFFIX):
                continue
            if fid in direct:
                # Entropy used in the function's own body: that file imports
                # an entropy module, which is the per-file D101's finding.
                continue
            source = project.find(info.relpath)
            if source is None:  # pragma: no cover - layer implies in scope
                continue
            chain = chains[fid]
            yield self.finding(
                source,
                info.node,
                f"sim-layer function {info.qualname}() reaches stdlib "
                f"entropy through {chain.render(graph)}; route the draw "
                "through a RandomStreams named stream",
            )


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
        imports = source.symbols.imports
        # File-level approximation: a name assigned a raw Random anywhere in
        # the file taints that name everywhere in it.  src/ holds no
        # same-name reuse across scopes worth distinguishing, and the
        # approximation only ever errs toward flagging entropy plumbing.
        tainted_names = local_raw_random_names(imports, source.tree)
        for node in walk_runtime(source.tree):
            if not isinstance(node, ast.Call):
                continue
            for arg, dotted in raw_random_arguments(imports, node, tainted_names):
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
