"""REP003 — provenance completeness across config, serializers, identity.

The cross-module contract this rule mechanizes is the one PR 6's
``rng_mode``-in-identity / ``chunk_workers``-excluded split was reviewed
against by hand: a knob that changes computed bits must be recorded
everywhere a result travels (simulation JSON, result-row round-trip) and
consumed when a row is reproduced; a knob that is execution telemetry
must be *declared* as such, not silently dropped.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from .framework import Diagnostic, Project, Rule, SourceFile, register


def _dataclass_fields(class_def: ast.ClassDef) -> List[Tuple[str, ast.AST]]:
    """(name, node) of every annotated public field of a dataclass body."""
    fields = []
    for node in class_def.body:
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and not node.target.id.startswith("_")
        ):
            fields.append((node.target.id, node))
    return fields


def _dict_string_keys(node: ast.Dict) -> List[str]:
    return [
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    ]


def _provenance_keys(fn: ast.FunctionDef) -> Optional[Set[str]]:
    """Keys of the ``"provenance"`` dict literal inside a serializer."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "provenance"
                and isinstance(value, ast.Dict)
            ):
                return set(_dict_string_keys(value))
    return None


def _returned_dict_keys(fn: ast.FunctionDef) -> Optional[Set[str]]:
    """String keys of the dict literal a function returns."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            return set(_dict_string_keys(node.value))
    return None


def _constructor_kwargs(fn: ast.FunctionDef, class_name: str) -> Optional[Set[str]]:
    """Keyword names passed to ``class_name(...)`` inside a function."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            callee = node.func
            name = (
                callee.id
                if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute) else None
            )
            if name == class_name and node.keywords:
                return {kw.arg for kw in node.keywords if kw.arg is not None}
    return None


def _consumed_names(fn: ast.FunctionDef) -> Set[str]:
    """Names a reproducer visibly consumes from its row argument.

    Attribute reads off the first parameter (``row.seed``) plus every
    string constant in the body — the latter covers the canonical
    ``for name in ("batch_size", ...): getattr(row, name)`` loop.
    """
    row_arg = fn.args.args[0].arg if fn.args.args else None
    consumed: Set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == row_arg
        ):
            consumed.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            consumed.add(node.value)
    return consumed


def _tuple_constant(
    project: Project, name: str
) -> Tuple[Optional[SourceFile], Tuple[str, ...]]:
    found = project.find_constant(name)
    if found is not None and isinstance(found[1], (tuple, list)):
        return found[0], tuple(str(item) for item in found[1])
    return None, ()


@register
class ProvenanceCompleteness(Rule):
    """Every identity-bearing knob is serialized, round-tripped, consumed.

    Checks, over whatever subset of the definitions the lint tree
    contains (absent pieces are skipped, so fixtures stay small):

    1. every public ``SimulationConfig`` field appears as a key of
       ``simulation_result_to_dict``'s provenance block, unless declared
       in ``NON_PROVENANCE_CONFIG_FIELDS``;
    2. every ``ResultRow`` field appears in ``result_row_to_dict``'s
       returned dict *and* as a keyword of the ``ResultRow(...)``
       reconstruction in ``result_row_from_dict`` (the JSON round-trip);
    3. every ``ResultRow`` field that names an engine knob (a
       ``SimulationConfig`` field or ``SIMULATION_PARAMETER_NAMES``
       entry) is either consumed by ``reproduce_row`` (identity) or
       declared in ``TELEMETRY_ROW_FIELDS`` (telemetry) — never neither,
       and never both;
    4. every ``SIMULATION_PARAMETER_NAMES`` entry appears in the
       provenance block.
    """

    rule_id = "REP003"
    title = "provenance-completeness"
    contract = (
        "SimulationConfig fields and common scenario parameters are "
        "serialized, round-tripped, and either reproduction identity or "
        "declared telemetry"
    )

    def check_project(self, project: Project) -> Iterator[Diagnostic]:
        config = project.find_class("SimulationConfig")
        serializer = project.find_function("simulation_result_to_dict")
        _, config_exempt = _tuple_constant(project, "NON_PROVENANCE_CONFIG_FIELDS")
        prov_keys: Optional[Set[str]] = None
        if serializer is not None:
            prov_keys = _provenance_keys(serializer[1])

        # 1. config fields -> provenance block
        if config is not None and prov_keys is not None:
            config_file, config_def = config
            for name, node in _dataclass_fields(config_def):
                if name not in prov_keys and name not in config_exempt:
                    yield self.diagnostic(
                        config_file,
                        node,
                        f"SimulationConfig.{name} is not serialized in "
                        "simulation_result_to_dict provenance and not "
                        "declared in NON_PROVENANCE_CONFIG_FIELDS",
                    )

        # 2. ResultRow round-trip
        row = project.find_class("ResultRow")
        to_dict = project.find_function("result_row_to_dict")
        from_dict = project.find_function("result_row_from_dict")
        row_fields: List[Tuple[str, ast.AST]] = []
        if row is not None:
            row_fields = _dataclass_fields(row[1])
        if row is not None and to_dict is not None:
            out_keys = _returned_dict_keys(to_dict[1]) or set()
            for name, node in row_fields:
                if name not in out_keys:
                    yield self.diagnostic(
                        row[0],
                        node,
                        f"ResultRow.{name} is missing from the "
                        "result_row_to_dict payload: rows would lose this "
                        "provenance on export",
                    )
        if row is not None and from_dict is not None:
            in_kwargs = _constructor_kwargs(from_dict[1], "ResultRow") or set()
            for name, node in row_fields:
                if name not in in_kwargs:
                    yield self.diagnostic(
                        row[0],
                        node,
                        f"ResultRow.{name} is not reconstructed by "
                        "result_row_from_dict: the JSON round-trip drops it",
                    )

        # 3. identity xor telemetry for engine knobs recorded on rows
        _, sim_params = _tuple_constant(project, "SIMULATION_PARAMETER_NAMES")
        _, telemetry_fields = _tuple_constant(project, "TELEMETRY_ROW_FIELDS")
        reproducer = project.find_function("reproduce_row")
        if row is not None and reproducer is not None and config is not None:
            config_names = {name for name, _ in _dataclass_fields(config[1])}
            engine_knobs = config_names | set(sim_params)
            consumed = _consumed_names(reproducer[1])
            for name, node in row_fields:
                if name not in engine_knobs:
                    continue
                is_identity = name in consumed
                is_telemetry = name in telemetry_fields
                if not is_identity and not is_telemetry:
                    yield self.diagnostic(
                        row[0],
                        node,
                        f"ResultRow.{name} is an engine knob that "
                        "reproduce_row never consumes and "
                        "TELEMETRY_ROW_FIELDS does not declare: decide "
                        "whether it is reproduction identity or telemetry",
                    )
                elif is_identity and is_telemetry:
                    yield self.diagnostic(
                        row[0],
                        node,
                        f"ResultRow.{name} is both consumed by "
                        "reproduce_row and declared telemetry in "
                        "TELEMETRY_ROW_FIELDS; it must be exactly one",
                    )

        # 4. engine-consumed common parameters -> provenance block
        sim_params_file, sim_params_names = _tuple_constant(
            project, "SIMULATION_PARAMETER_NAMES"
        )
        if sim_params_file is not None and prov_keys is not None:
            for name in sim_params_names:
                if name not in prov_keys:
                    yield Diagnostic(
                        rule=self.rule_id,
                        path=sim_params_file.rel,
                        line=1,
                        col=0,
                        message=(
                            f"common engine parameter {name!r} "
                            "(SIMULATION_PARAMETER_NAMES) is missing from "
                            "simulation_result_to_dict provenance"
                        ),
                    )
