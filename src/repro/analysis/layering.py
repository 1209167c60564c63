"""R6: the declared import-layer DAG, enforced.

The architecture's layering is a contract, not a convention: lower layers
must stay importable without dragging in the heavy upper ones (a worker
rank imports ``mpi`` + ``coevolution``, never ``api``/``serving``; the
telemetry bus must be importable from *anywhere* without cycles).  The
declared layers, bottom to top:

====== =====================================================
layer  components
====== =====================================================
0      ``registry``, ``runtime``, ``analysis``
       (leaf-safe: import nothing from repro)
1      ``telemetry``, ``config``
2      ``data``, ``nn``
3      ``gan``
4      ``coevolution``, ``metrics``
5      ``cluster``, ``mpi``, ``parallel``
6      ``serving``, ``api``
7      ``experiments``, ``cli``, ``viz``
8      the ``repro`` root package and ``__main__`` (facade)
====== =====================================================

Only **eager, module-scope** imports count: an import inside a function
(lazy) or under ``if TYPE_CHECKING:`` is the sanctioned way to reference
upward (e.g. ``coevolution.checkpoint`` reaching ``serving`` lazily for
``to_servable``).  Same-layer imports are allowed (``parallel`` uses
``mpi``), but module-level cycles are rejected anywhere — an SCC in the
eager import graph means import order decides which module sees a
half-initialized sibling.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.rules import FileContext, Rule

__all__ = ["LAYERS", "LayeringRule", "eager_repro_imports"]

LAYERS: dict[str, int] = {
    "registry": 0, "runtime": 0, "analysis": 0,
    "telemetry": 1, "config": 1,
    "data": 2, "nn": 2,
    "gan": 3,
    "coevolution": 4, "metrics": 4,
    "cluster": 5, "mpi": 5, "parallel": 5,
    "serving": 6, "api": 6,
    "experiments": 7, "cli": 7, "viz": 7,
    "": 8, "__main__": 8,
}


def _type_checking_guard(node: ast.If) -> bool:
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


@dataclass(frozen=True)
class _Edge:
    target_module: str    # dotted module as written
    line: int


def eager_repro_imports(tree: ast.Module,
                        known_components: set[str] | None = None) -> list[_Edge]:
    """Module-scope imports of ``repro[.x]``, skipping TYPE_CHECKING blocks.

    ``from repro import X`` resolves to component ``X`` when ``X`` is a
    known component (submodule import through the root), otherwise to the
    root facade.
    """
    edges: list[_Edge] = []

    def visit(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro" or alias.name.startswith("repro."):
                        edges.append(_Edge(alias.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "repro":
                    for alias in node.names:
                        name = alias.name
                        if known_components and name in known_components:
                            edges.append(_Edge(f"repro.{name}", node.lineno))
                        else:
                            edges.append(_Edge("repro", node.lineno))
                elif node.module.startswith("repro."):
                    # ``from repro.nn import functional`` is a sibling-submodule
                    # import, not a dependency on the package __init__ — record
                    # the candidate submodule; _resolve falls back to the
                    # package when no scanned module matches (a plain name).
                    for alias in node.names:
                        edges.append(_Edge(f"{node.module}.{alias.name}",
                                           node.lineno))
            elif isinstance(node, ast.If):
                if not _type_checking_guard(node):
                    visit(node.body)
                    visit(node.orelse)
            elif isinstance(node, (ast.Try, ast.With)):
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, ast.stmt):
                        visit([sub])
                if isinstance(node, ast.Try):
                    for handler in node.handlers:
                        visit(handler.body)
    visit(tree.body)
    return edges


def _component_of(module: str) -> str:
    parts = module.split(".")
    if parts[0] != "repro":
        return parts[0]
    return parts[1] if len(parts) > 1 else ""


class LayeringRule(Rule):
    """Per-file layer checks plus a project-wide cycle pass (see module doc)."""

    id = "R6"
    slug = "layering"
    severity = "error"
    description = "eager import violating the declared layer DAG, or an import cycle"

    def __init__(self, layers: dict[str, int] | None = None):
        self.layers = dict(LAYERS if layers is None else layers)
        #: module -> [(imported module, line)] over the whole run, for cycles.
        self._graph: dict[str, list[tuple[str, int]]] = {}
        self._paths: dict[str, str] = {}
        self._known = {c for c in self.layers if c} | {"analysis"}

    def check(self, ctx: FileContext) -> list[Finding]:
        out: list[Finding] = []
        my_component = ctx.component
        my_layer = self.layers.get(my_component)
        edges = eager_repro_imports(ctx.tree, known_components=self._known)
        self._graph.setdefault(ctx.module, [])
        self._paths[ctx.module] = ctx.path
        seen: set[tuple[str, int]] = set()
        for edge in edges:
            self._graph[ctx.module].append((edge.target_module, edge.line))
            target_component = _component_of(edge.target_module)
            if (target_component, edge.line) in seen:
                continue
            seen.add((target_component, edge.line))
            target_layer = self.layers.get(target_component)
            if my_layer is None:
                out.append(Finding(
                    rule=self.id, slug=self.slug, severity=self.severity,
                    path=ctx.path, line=edge.line,
                    message=f"component '{my_component or 'repro'}' is not in "
                            f"the declared layer map — add it to "
                            f"repro.analysis.layering.LAYERS at a conscious "
                            f"height",
                ))
                break
            if target_layer is None:
                out.append(Finding(
                    rule=self.id, slug=self.slug, severity=self.severity,
                    path=ctx.path, line=edge.line,
                    message=f"import of undeclared component "
                            f"'{target_component or 'repro'}' — add it to the "
                            f"layer map",
                ))
            elif target_layer > my_layer:
                out.append(Finding(
                    rule=self.id, slug=self.slug, severity=self.severity,
                    path=ctx.path, line=edge.line,
                    message=f"layer violation: "
                            f"{my_component or 'repro'} (layer {my_layer}) "
                            f"eagerly imports "
                            f"{target_component or 'repro'} (layer "
                            f"{target_layer}) — import lazily inside the "
                            f"using function, or move the dependency down",
                ))
        return out

    # -- project-wide cycle detection ------------------------------------------

    def finish(self) -> list[Finding]:
        """Reject module-level SCCs in the eager import graph.

        Edges pointing outside the scanned set (e.g. linting one file) are
        ignored — cycle detection needs the closed graph.
        """
        graph = {
            module: sorted({target for target, _ in edges
                            if self._resolve(target) is not None})
            for module, edges in self._graph.items()
        }
        resolved = {m: [self._resolve(t) for t in ts] for m, ts in graph.items()}
        cycles = _find_cycles(resolved)
        out = []
        for cycle in cycles:
            anchor = min(cycle)
            pretty = " -> ".join(list(cycle) + [cycle[0]])
            out.append(Finding(
                rule=self.id, slug=self.slug, severity=self.severity,
                path=self._paths.get(anchor, anchor), line=1,
                message=f"eager import cycle: {pretty} — one of these must "
                        f"become a lazy (function-scope) import",
            ))
        return out

    def _resolve(self, target: str) -> str | None:
        """Map an imported dotted name onto a scanned module, if any."""
        candidate = target
        while candidate:
            if candidate in self._graph:
                return candidate
            if f"{candidate}.__init__" in self._graph:
                return f"{candidate}.__init__"
            candidate = candidate.rpartition(".")[0]
        return None


def _find_cycles(graph: dict[str, list[str | None]]) -> list[list[str]]:
    """Tarjan SCCs of size > 1 (plus direct self-loops), sorted."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(node: str) -> None:
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in graph.get(node, ()):
            if succ is None or succ == node:
                continue
            if succ not in index:
                strongconnect(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                sccs.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return sorted(sccs)
