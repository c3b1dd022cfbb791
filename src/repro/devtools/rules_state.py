"""REP008 no module-level mutable state on the hot path."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from .framework import Diagnostic, Project, Rule, SourceFile, register

#: The engine's hot path: every simulate call, from any thread, runs
#: through these modules.
HOT_PATH_SUFFIXES = (
    "simulation/engine.py",
    "simulation/batch.py",
    "simulation/rng.py",
    "simulation/population.py",
    "simulation/pool.py",
    "core/pipeline.py",
)

#: Container methods that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "clear",
        "append",
        "extend",
        "insert",
        "update",
        "pop",
        "popitem",
        "setdefault",
        "add",
        "discard",
        "remove",
    }
)


def _module_names(tree: ast.Module) -> Set[str]:
    """Names bound by top-level assignments (not imports, defs or classes)."""
    names: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            for child in ast.walk(target):
                if isinstance(child, ast.Name):
                    names.add(child.id)
    return names


class _StateVisitor(ast.NodeVisitor):
    """Collects writes to module-level names from inside functions."""

    def __init__(self, module_names: Set[str]) -> None:
        self.module_names = module_names
        self.local_scopes: List[Set[str]] = []
        self.found: List[Tuple[ast.AST, str]] = []

    def _visit_function(self, node: ast.AST) -> None:
        arguments = node.args  # type: ignore[attr-defined]
        local = {
            arg.arg
            for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        }
        for extra in (arguments.vararg, arguments.kwarg):
            if extra is not None:
                local.add(extra.arg)
        declared_global: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                local.add(child.id)
            elif isinstance(child, ast.Global):
                declared_global.update(child.names)
        self.local_scopes.append(local - declared_global)
        self.generic_visit(node)
        self.local_scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def _module_name(self, node: ast.expr) -> Optional[str]:
        if not self.local_scopes or not isinstance(node, ast.Name):
            return None
        if node.id not in self.module_names:
            return None
        if any(node.id in scope for scope in self.local_scopes):
            return None
        return node.id

    def visit_Global(self, node: ast.Global) -> None:
        if self.local_scopes:
            self.found.append((node, f"global rebinding of {', '.join(node.names)}"))

    def visit_Subscript(self, node: ast.Subscript) -> None:
        name = self._module_name(node.value)
        if name is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
            self.found.append((node, f"subscript store into module-level {name}"))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            name = self._module_name(func.value)
            if name is not None:
                self.found.append(
                    (node, f"{name}.{func.attr}() mutates module-level {name}")
                )
        self.generic_visit(node)


@register
class NoHotPathModuleState(Rule):
    """The hot path keeps no mutable state at module level.

    Every simulate call runs through the engine, batch, rng, population,
    pool and pipeline modules, often from several threads at once (the
    service's threading server and its job worker).  A module-level
    cache written from a function is shared by all of them: two calls
    that draw into one recycled buffer corrupt each other's results,
    and the service's first-write-wins cache keeps the wrong answer for
    good.  Per-call state belongs to the call, or to an object the
    caller owns and passes down.  Read-only module tables stay legal;
    a process-wide singleton is an object that owns its lock and its
    state (the process pool in ``simulation/pool.py``).
    """

    rule_id = "REP008"
    title = "no-hot-path-module-state"
    contract = (
        "no global rebinding, subscript stores or mutating method calls "
        "on module-level names from functions in the engine's hot-path "
        "modules"
    )

    def check_file(
        self, file: SourceFile, project: Project
    ) -> Iterator[Diagnostic]:
        if not file.matches(*HOT_PATH_SUFFIXES):
            return
        visitor = _StateVisitor(_module_names(file.tree))
        visitor.visit(file.tree)
        for node, what in visitor.found:
            yield self.diagnostic(
                file,
                node,
                f"{what} on the hot path; concurrent simulate calls would "
                "share it — keep the state per call or on an object the "
                "caller owns",
            )
