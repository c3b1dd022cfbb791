"""REP004 — the draw-stream and decision-column layouts are append-only."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from .framework import Diagnostic, Project, Rule, SourceFile, register
from .layouts import FROZEN_DECISION_SUFFIX, FROZEN_STREAM_CONSTANTS


def _column_assignments(
    fn: ast.FunctionDef,
) -> List[Tuple[str, Optional[int], ast.AST]]:
    """Ordered ``columns["key"] = offset [+ k]`` assignments of a function.

    Returns (key, addend, node) triples; ``addend`` is the integer added
    to the base offset (0 for a bare ``= offset``), or ``None`` when the
    value is not of that shape.
    """
    assignments = []
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (
            isinstance(target, ast.Subscript)
            and isinstance(target.slice, ast.Constant)
            and isinstance(target.slice.value, str)
        ):
            continue
        key = target.slice.value
        addend: Optional[int] = None
        value = node.value
        if isinstance(value, ast.Name):
            addend = 0
        elif (
            isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Add)
            and isinstance(value.left, ast.Name)
            and isinstance(value.right, ast.Constant)
            and isinstance(value.right.value, int)
        ):
            addend = value.right.value
        assignments.append((key, addend, node))
    assignments.sort(key=lambda item: item[2].lineno)
    return assignments


@register
class StreamLayoutFrozen(Rule):
    """Persisted draw coordinates must stay replayable forever.

    Counter-mode addresses every draw by ``(seed, chunk, round, stream,
    receiver)`` and matrix-mode realizes decisions positionally from
    ``decision_columns``; both layouts are public and effectively
    persisted in every recorded result.  Existing stream ids and column
    positions are therefore frozen: this rule compares the live
    definitions against the snapshot in ``devtools/layouts.py`` and
    fails on any renumbering or reordering.  Appending new entries (and
    extending the snapshot in the same change) is always allowed.
    """

    rule_id = "REP004"
    title = "stream-layout-frozen"
    contract = (
        "counter-stream id constants and the decision_columns tail are "
        "append-only: existing entries keep their numbers and order"
    )

    def check_file(
        self, file: SourceFile, project: Project
    ) -> Iterator[Diagnostic]:
        for node in file.tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            frozen = FROZEN_STREAM_CONSTANTS.get(target.id)
            if frozen is None:
                continue
            try:
                live = ast.literal_eval(node.value)
            except (ValueError, TypeError, SyntaxError):
                continue
            if isinstance(live, list):
                live = tuple(live)
            if live != frozen:
                yield self.diagnostic(
                    file,
                    node,
                    f"{target.id} = {live!r} renumbers a frozen stream id "
                    f"(snapshot: {frozen!r}); stream layout is append-only "
                    "— add new streams above the existing block instead",
                )

    def check_project(self, project: Project) -> Iterator[Diagnostic]:
        found = project.find_function("decision_columns")
        if found is None:
            return
        file, fn = found
        assignments = _column_assignments(fn)
        if not assignments:
            return
        keys = [key for key, _, _ in assignments]
        addends = [addend for _, addend, _ in assignments]
        frozen = list(FROZEN_DECISION_SUFFIX)
        if keys[: len(frozen)] != frozen:
            yield self.diagnostic(
                file,
                assignments[0][2],
                f"decision_columns tail order {keys!r} does not start with "
                f"the frozen suffix {frozen!r}; existing columns are "
                "append-only — new columns go after 'behavior'",
            )
            return
        for index, (key, addend, node) in enumerate(assignments):
            if addend != index:
                yield self.diagnostic(
                    file,
                    node,
                    f"decision_columns[{key!r}] sits at offset + "
                    f"{addend!r}, expected offset + {index} — renumbering "
                    "an existing column shifts every later draw in the "
                    "matrix layout",
                )
        # The no-communication layout is part of the frozen contract too.
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                literal_keys = [
                    key.value
                    for key in node.value.keys
                    if isinstance(key, ast.Constant)
                ]
                if literal_keys and literal_keys[0] != "self_initiated":
                    yield self.diagnostic(
                        file,
                        node,
                        "the no-communication decision layout must keep "
                        "'self_initiated' at column 0",
                    )
