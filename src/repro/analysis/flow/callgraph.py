"""Module-level call / alias graph.

Best-effort and purely syntactic (no imports are executed): for every
function defined in a set of modules, record

* its dotted id (``module.qualname``),
* the alias-resolved dotted names it *calls*,
* the alias-resolved dotted names it *returns* (when a ``return``
  statement's value is a bare name/attribute chain — enough to spot
  factory helpers like ``def _shared_memory(): return
  shared_memory.SharedMemory``).

Flow rules use the same-module slice (``module_returns``) to resolve
``cls = _factory(); cls(...)`` patterns; external tooling can walk the
full graph.  Everything here is plain
data (dicts/strings) so per-file slices serialize into the lint
engine's incremental cache.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["FunctionNode", "CallGraph", "build_module_graph",
           "module_returns"]


def _resolve(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Dotted name of a Name/Attribute chain, alias-expanded."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    dotted = ".".join(reversed(parts))
    head, _, tail = dotted.partition(".")
    origin = aliases.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{tail}" if tail else origin


@dataclass
class FunctionNode:
    """One function in the graph (plain-data, cache-serializable)."""

    id: str                                   # "module.qualname"
    module: str
    qualname: str
    line: int
    calls: list[str] = field(default_factory=list)
    returns: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"id": self.id, "module": self.module,
                "qualname": self.qualname, "line": self.line,
                "calls": self.calls, "returns": self.returns}

    @classmethod
    def from_json(cls, doc: dict) -> "FunctionNode":
        return cls(id=doc["id"], module=doc["module"],
                   qualname=doc["qualname"], line=doc["line"],
                   calls=list(doc["calls"]), returns=list(doc["returns"]))


class CallGraph:
    """Merged function nodes across modules, indexed by dotted id."""

    def __init__(self) -> None:
        self.nodes: dict[str, FunctionNode] = {}

    def add(self, node: FunctionNode) -> None:
        self.nodes[node.id] = node

    def callees(self, function_id: str) -> list[str]:
        node = self.nodes.get(function_id)
        return list(node.calls) if node else []

    def callers(self, function_id: str) -> list[str]:
        return sorted(node.id for node in self.nodes.values()
                      if function_id in node.calls)

    def __len__(self) -> int:
        return len(self.nodes)


def build_module_graph(module: str, tree: ast.AST,
                       aliases: dict[str, str]) -> list[FunctionNode]:
    """Function nodes for one module's AST (nested defs included)."""
    nodes: list[FunctionNode] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                fn = FunctionNode(
                    id=f"{module}.{qualname}" if module else qualname,
                    module=module, qualname=qualname, line=child.lineno)
                seen_calls: set[str] = set()
                for sub in ast.walk(child):
                    if isinstance(sub, ast.Call):
                        target = _resolve(sub.func, aliases)
                        if target and target not in seen_calls:
                            seen_calls.add(target)
                            fn.calls.append(target)
                    elif isinstance(sub, ast.Return) and \
                            sub.value is not None:
                        returned = _resolve(sub.value, aliases)
                        if returned and returned not in fn.returns:
                            fn.returns.append(returned)
                nodes.append(fn)
                visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return nodes


def module_returns(tree: ast.AST, aliases: dict[str, str]) -> dict[str, list[str]]:
    """``local function name -> dotted names it returns`` for one module.

    Only module-level, single-segment function names are indexed — this
    is the slice flow rules use to see through same-file factory
    helpers (``cls = _shared_memory()``).
    """
    out: dict[str, list[str]] = {}
    for node in build_module_graph("", tree, aliases):
        if "." not in node.qualname and node.returns:
            out[node.qualname] = node.returns
    return out
