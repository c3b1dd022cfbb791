"""Request parsing: JSON bodies into validated experiment specifications.

Every value a client sends is routed through the scenario's own
:class:`~repro.systems.parameters.ParameterSpace` — the service invents
no second validation layer, so the 422 bodies it returns name exactly
the parameter the experiment layer would reject.  Engine knobs
(``rounds``, ``rng_mode``, the habituation weights, ...) are accepted
**only** inside ``params``: that keeps every bit-relevant input inside
the row's ``variant_hash``, which is what makes the content-keyed cache
(:mod:`repro.service.cache`) collision-free.  ``batch_size`` and
``chunk_workers`` are not request fields at all, and neither is in a
cache key.  ``chunk_workers`` never changes the bits.  ``batch_size``
does, but the service always runs at the engine default, and the cache
admits no row recorded at any other batch size.

:func:`run_with_cache` is the service's synchronous execution path: it
plans an experiment into per-variant work units, serves any unit whose
predicted row identities are all cached (exact first-computation bytes,
hit-counted), and runs only the rest — so re-submitting a sweep that was
ever computed does no engine work.  Of a unit's key parts only the
resolved task name needs the scenario's built system; a
:class:`TaskNameMemo` owned by the service state remembers it per point
and requested spelling, so only the first request for a point binds the
scenario and builds its system — a cache hit does neither.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.exceptions import ModelError
from ..experiments.design import (
    EXPERIMENT_PATHS,
    SEED_STRATEGIES,
    Experiment,
    SweepSpec,
    VariantSpec,
)
from ..experiments.results import ExperimentError, ResultSet
from ..experiments.runner import VariantRun, plan_runs, resolved_task_name, run_variant
from ..io.experiments_io import result_row_from_dict, result_row_to_dict
from ..simulation.engine import SIMULATION_MODES, SimulationConfig
from ..systems.scenario import get_scenario, variant_hash
from .cache import CacheKey, ResultCache, row_cache_key
from .errors import BadRequestError, ValidationFailure

__all__ = [
    "validate_params",
    "build_experiment",
    "run_cost",
    "TaskNameMemo",
    "predicted_run_keys",
    "run_with_cache",
]

#: Engine defaults the realized row provenance falls back to when the
#: request leaves the matching knob unset — read from the dataclass
#: declaration so a changed engine default cannot desynchronize the
#: predicted cache keys.
_ENGINE_DEFAULT_RNG_MODE = str(
    SimulationConfig.__dataclass_fields__["rng_mode"].default
)
_ENGINE_DEFAULT_ROUNDS = int(
    SimulationConfig.__dataclass_fields__["rounds"].default  # type: ignore[arg-type]
)

#: Body fields the simulate/sweep endpoints accept; anything else is a
#: 400 — engine knobs must travel inside ``params`` (see module doc).
EXPERIMENT_FIELDS = (
    "scenario",
    "params",
    "grid",
    "base",
    "n_receivers",
    "seed",
    "mode",
    "task",
    "paths",
    "seed_strategy",
    "name",
    "detach",
)


def require_body(body: Optional[Mapping[str, Any]]) -> Mapping[str, Any]:
    """The request body, which must be a JSON object."""
    if body is None:
        raise BadRequestError("this endpoint requires a JSON object body")
    return body


def body_str(
    body: Mapping[str, Any], name: str, default: Optional[str] = None
) -> Optional[str]:
    value = body.get(name, default)
    if value is not None and not isinstance(value, str):
        raise BadRequestError(f"field {name!r} must be a string", field=name)
    return value


def body_int(
    body: Mapping[str, Any], name: str, default: Optional[int] = None
) -> Optional[int]:
    value = body.get(name, default)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise BadRequestError(f"field {name!r} must be an integer", field=name)
    return value


def body_dict(
    body: Mapping[str, Any], name: str
) -> Dict[str, Any]:
    value = body.get(name, {})
    if not isinstance(value, dict):
        raise BadRequestError(f"field {name!r} must be a JSON object", field=name)
    return value


def check_fields(
    body: Mapping[str, Any], allowed: Sequence[str]
) -> None:
    """Reject unknown body fields, so engine knobs cannot bypass ``params``."""
    unknown = sorted(name for name in body if name not in allowed)
    if unknown:
        raise BadRequestError(
            f"unknown fields {unknown}; allowed: {sorted(allowed)}",
            fields=unknown,
        )


def validate_params(
    scenario_name: str, params: Mapping[str, Any]
) -> Dict[str, Any]:
    """Validate overrides against the scenario's parameter space.

    Failures become structured 422s: an unknown scenario names itself
    under ``parameter: "scenario"``; a bad override names the exact
    offending parameter — validated one name at a time so a multi-knob
    request still pins the blame precisely.
    """
    if not isinstance(params, Mapping):
        raise BadRequestError("params must be a JSON object")
    try:
        scenario = get_scenario(scenario_name)
    except ModelError as error:
        raise ValidationFailure(str(error), parameter="scenario") from error
    space = scenario.parameter_space()
    validated: Dict[str, Any] = {}
    for name, value in params.items():
        try:
            validated.update(space.validate({name: value}))
        except ModelError as error:
            raise ValidationFailure(str(error), parameter=name) from error
    return validated


def build_experiment(
    body: Mapping[str, Any], default_name: str
) -> Experiment:
    """A validated :class:`Experiment` from a simulate/sweep request body.

    ``params`` (one point) and ``grid``/``base`` (a sweep) are mutually
    exclusive.  A single-point request runs under ``seed_strategy:
    "shared"`` so its row records exactly the requested seed — the
    cache-key contract; sweeps default to per-variant streams like the
    experiment layer itself.
    """
    check_fields(body, EXPERIMENT_FIELDS)
    scenario = body_str(body, "scenario")
    if scenario is None:
        raise BadRequestError("field 'scenario' is required", field="scenario")
    if "params" in body and "grid" in body:
        raise BadRequestError(
            "pass either 'params' (one point) or 'grid' (a sweep), not both"
        )

    if "grid" in body:
        grid = body_dict(body, "grid")
        base = body_dict(body, "base")
        if not grid:
            raise BadRequestError("field 'grid' must name at least one axis")
        validate_params(scenario, base)
        for axis, values in grid.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, list):
                raise BadRequestError(
                    f"grid axis {axis!r} must be a list of values", field=axis
                )
            for value in values:
                validate_params(scenario, {axis: value})
        try:
            variants = SweepSpec(scenario=scenario, grid=grid, base=base).expand()
        except ExperimentError as error:
            raise BadRequestError(str(error)) from error
        default_strategy = "per-variant"
    else:
        validated = validate_params(scenario, body_dict(body, "params"))
        variants = (VariantSpec(scenario=scenario, params=validated),)
        default_strategy = "shared"

    mode = body_str(body, "mode", "batch")
    assert mode is not None
    if mode not in SIMULATION_MODES:
        raise ValidationFailure(
            f"mode must be one of {SIMULATION_MODES}, got {mode!r}",
            parameter="mode",
        )
    paths_field = body.get("paths", ["simulate"])
    if not isinstance(paths_field, list) or not all(
        isinstance(path, str) for path in paths_field
    ):
        raise BadRequestError("field 'paths' must be a list of strings", field="paths")
    paths = tuple(paths_field)
    if not paths or any(path not in EXPERIMENT_PATHS for path in paths):
        raise ValidationFailure(
            f"paths must be a non-empty subset of {EXPERIMENT_PATHS}, got {paths!r}",
            parameter="paths",
        )
    strategy = body_str(body, "seed_strategy", default_strategy)
    assert strategy is not None
    if strategy not in SEED_STRATEGIES:
        raise ValidationFailure(
            f"seed_strategy must be one of {SEED_STRATEGIES}, got {strategy!r}",
            parameter="seed_strategy",
        )
    name = body_str(body, "name", default_name)
    assert name is not None
    n_receivers = body_int(body, "n_receivers", 500)
    seed = body_int(body, "seed", 0)
    assert n_receivers is not None and seed is not None

    try:
        return Experiment(
            name=name,
            variants=variants,
            n_receivers=n_receivers,
            seed=seed,
            mode=mode,
            paths=paths,
            task=body_str(body, "task"),
            seed_strategy=strategy,
        )
    except ExperimentError as error:
        raise BadRequestError(str(error)) from error


def run_cost(experiment: Experiment) -> int:
    """The receiver-round count an experiment will simulate.

    The inline-vs-async dispatch metric: analytic walks are free (always
    inline on their own), each simulated variant costs ``n_receivers``
    times its effective round count.
    """
    if "simulate" not in experiment.paths:
        return 0
    cost = 0
    for variant in experiment.variants:
        rounds = variant.params.get("rounds") or _ENGINE_DEFAULT_ROUNDS
        cost += experiment.n_receivers * int(rounds)
    return cost


#: ``(scenario, variant_hash, requested task spelling)`` — what a resolved
#: task name depends on: the point fixes the bound system, the spelling
#: (``None``, a full name or a unique prefix) picks one of its tasks.
TaskKey = Tuple[str, str, Optional[str]]


class TaskNameMemo:
    """Thread-safe memo of resolved task names, one per point and spelling.

    A name enters only after it resolved against a built system, so a
    spelling that failed (unknown, ambiguous, or a combination the binder
    rejects) is never remembered and fails again on every repeat.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._names: Dict[TaskKey, str] = {}

    def get(self, key: TaskKey) -> Optional[str]:
        with self._lock:
            return self._names.get(key)

    def record(self, key: TaskKey, name: str) -> None:
        with self._lock:
            self._names.setdefault(key, name)


def predicted_run_keys(run: VariantRun, task_names: TaskNameMemo) -> List[CacheKey]:
    """The cache keys the rows of one work unit will carry, in row order.

    Mirrors what :func:`~repro.experiments.runner.run_variant` records:
    the realized ``rng_mode`` / ``rounds`` are the bound parameter values
    or the engine defaults (engine knobs live only in ``params``).  The
    task name comes from ``task_names``; only on a memo miss is it
    resolved against the built system, the same way the runner resolves
    it, and then remembered.
    """
    point = variant_hash(run.scenario, run.params)
    task_key = (run.scenario, point, run.task)
    task = task_names.get(task_key)
    if task is None:
        task = resolved_task_name(run)
        task_names.record(task_key, task)
    keys: List[CacheKey] = []
    if "analyze" in run.paths:
        keys.append((point, None, None, "analytic", None, None, task))
    if "simulate" in run.paths:
        rng_mode = run.params.get("rng_mode") or _ENGINE_DEFAULT_RNG_MODE
        rounds = run.params.get("rounds") or _ENGINE_DEFAULT_ROUNDS
        keys.append(
            (point, run.seed, run.n_receivers, run.mode, rng_mode, int(rounds), task)
        )
    return keys


@dataclasses.dataclass(frozen=True)
class CachedRunOutcome:
    """What :func:`run_with_cache` produced, and where the rows came from."""

    resultset: ResultSet
    served: int
    computed: int

    def cache_summary(self) -> Dict[str, int]:
        return {"served": self.served, "computed": self.computed}


def run_with_cache(
    cache: ResultCache, task_names: TaskNameMemo, experiment: Experiment
) -> CachedRunOutcome:
    """Run an experiment, serving fully-cached variants without engine work.

    Per work unit: when every predicted row identity is cached, the rows
    are served from the cache (counting hits) and the variant never
    simulates or analyzes, and binds only if ``task_names`` has not seen
    its point yet (a server warmed from a replayed cache, say); otherwise
    the unit runs, its misses are counted, and its rows are stored under
    their recorded identity — first write wins, so a racing duplicate
    keeps the original bytes.
    """
    served = 0
    computed = 0
    payloads: List[Dict[str, Any]] = []
    for run in plan_runs(experiment):
        keys = predicted_run_keys(run, task_names)
        if keys and all(cache.peek(key) for key in keys):
            for key in keys:
                payload = cache.serve(key)
                assert payload is not None  # peeked under first-write-wins
                payloads.append(payload)
            served += len(keys)
        else:
            rows = run_variant(run)
            cache.note_misses(len(rows))
            computed += len(rows)
            for row in rows:
                payload = result_row_to_dict(row)
                cache.store(row_cache_key(payload), payload)
                payloads.append(payload)
    resultset = ResultSet(
        experiment=experiment.name,
        rows=[result_row_from_dict(payload) for payload in payloads],
        seed=experiment.seed,
    )
    return CachedRunOutcome(resultset=resultset, served=served, computed=computed)
