"""Request parsing: JSON bodies into validated experiment specifications.

This module checks only a body's JSON shape (known fields, strings,
integers, lists); the experiment layer validates the values, once each
(:class:`~repro.systems.parameters.ParameterSpace`,
:class:`~repro.experiments.design.SweepSpec`,
:class:`~repro.experiments.design.Experiment`).  The service invents no
second validation layer: a rejection is that layer's own error, naming
the ``parameter`` or ``field`` it rejects.  Engine knobs (``rounds``,
``rng_mode``, the habituation weights, ...) are accepted **only** inside
``params``: that keeps every bit-relevant input inside the row's
``variant_hash``, which is what makes the content-keyed cache
(:mod:`repro.service.cache`) collision-free.  ``batch_size`` is not a
request field and not in a cache key.  It does change the bits, but the
service always runs at the engine default, and the cache admits no row
recorded at any other batch size.  Where the engine runs a row's chunks
is its own choice; the row's ``chunk_workers`` records it as telemetry.

:func:`run_with_cache` is the service's one execution path, for inline
``/simulate``, ``/sweep`` and ``/analyze`` requests and for jobs alike:
of an experiment's per-variant work units it serves any whose rows are
all cached (hit-counted; :func:`serve_cached`) and runs only the rest
through the checkpointed loop — so re-submitting a sweep that was ever
computed does no engine work.  A served row is the first computation's
exact bytes except for three request-local fields, ``experiment``,
``variant`` and ``variant_index``, which name the request serving it.
A unit knows its rows' identities
(:meth:`~repro.experiments.runner.VariantRun.expected_rows`) except the
resolved task name, which needs the scenario's built system; a
:class:`TaskNameMemo` owned by the service state remembers it per point
and requested spelling, so only the first request for a point binds the
scenario and builds its system — a cache hit does neither.
"""

from __future__ import annotations

import dataclasses
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..experiments.backends import ShardProgress, run_checkpointed
from ..experiments.design import Experiment, SweepSpec, VariantSpec
from ..experiments.results import ResultRow, ResultSet
from ..experiments.runner import VariantRun, resolved_task_name
from ..io.experiments_io import result_row_from_dict, result_row_to_dict
from ..systems.scenario import get_scenario
from .cache import CacheKey, ResultCache, row_cache_key
from .errors import BadRequestError

__all__ = [
    "validate_params",
    "build_experiment",
    "run_cost",
    "TaskNameMemo",
    "predicted_run_keys",
    "serve_cached",
    "run_with_cache",
]

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

    A rejection is the space's own ``ModelError``, which names the first
    offending parameter — or ``"scenario"`` for an unknown scenario.
    """
    if not isinstance(params, Mapping):
        raise BadRequestError("params must be a JSON object")
    return get_scenario(scenario_name).parameter_space().validate(params)


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
        sweep = SweepSpec(
            scenario=scenario, grid=body_dict(body, "grid"), base=body_dict(body, "base")
        )
        variants = sweep.expand()
        default_strategy = "per-variant"
    else:
        validated = validate_params(scenario, body_dict(body, "params"))
        variants = (VariantSpec(scenario=scenario, params=validated),)
        default_strategy = "shared"

    paths = body.get("paths", ["simulate"])
    if not isinstance(paths, list) or not all(isinstance(path, str) for path in paths):
        raise BadRequestError("field 'paths' must be a list of strings", field="paths")
    name = body_str(body, "name", default_name)
    mode = body_str(body, "mode", "batch")
    strategy = body_str(body, "seed_strategy", default_strategy)
    n_receivers = body_int(body, "n_receivers", 500)
    seed = body_int(body, "seed", 0)
    assert name is not None and mode is not None and strategy is not None
    assert n_receivers is not None and seed is not None
    return Experiment(
        name=name,
        variants=variants,
        n_receivers=n_receivers,
        seed=seed,
        mode=mode,
        paths=tuple(paths),
        task=body_str(body, "task"),
        seed_strategy=strategy,
    )


def run_cost(runs: Sequence[VariantRun]) -> int:
    """The receiver-round count an experiment's work units will simulate.

    The inline-vs-async dispatch metric: analytic walks are free (always
    inline on their own), each simulated unit costs ``n_receivers`` times
    its planned ``rounds``.
    """
    return sum(run.n_receivers * run.rounds for run in runs if "simulate" in run.paths)


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

    Each is :func:`~repro.service.cache.row_cache_key` of what the row
    will record: the unit's planned identity fields
    (:meth:`~repro.experiments.runner.VariantRun.expected_rows`) and the
    resolved task name.  The task name comes from ``task_names``; only on
    a memo miss is it resolved against the built system, the same way the
    runner resolves it, and then remembered.
    """
    task_key = (run.scenario, run.variant_hash, run.task)
    task = task_names.get(task_key)
    if task is None:
        task = resolved_task_name(run)
        task_names.record(task_key, task)
    return [
        row_cache_key({**fields, "variant_hash": run.variant_hash, "task": task})
        for fields in run.expected_rows().values()
    ]


def serve_cached(
    cache: ResultCache, task_names: TaskNameMemo, run: VariantRun
) -> Dict[Tuple[str, str, str], ResultRow]:
    """Every row of ``run`` served from the cache, keyed by its planned row.

    All or nothing: rows are served (and hit-counted) only once every
    predicted key is cached, so a miss serves nothing and counts nothing.
    A served row takes ``experiment``, ``variant`` and ``variant_index``
    from ``run``, the request serving it; the rest is the cached bytes.
    """
    keys = predicted_run_keys(run, task_names)
    if not all(cache.peek(key) for key in keys):
        return {}
    identity: Dict[str, Any] = dict(
        experiment=run.experiment, variant=run.label, variant_index=run.variant_index
    )
    rows: List[ResultRow] = []
    for key in keys:
        payload = cache.serve(key)
        assert payload is not None  # peeked under first-write-wins
        rows.append(result_row_from_dict({**payload, **identity}))
    return dict(zip(run.expected_rows(), rows))


@dataclasses.dataclass(frozen=True)
class CachedRunOutcome:
    """What :func:`run_with_cache` produced, and where the rows came from."""

    resultset: ResultSet
    served: int
    computed: int

    def cache_summary(self) -> Dict[str, int]:
        return {"served": self.served, "computed": self.computed}


def run_with_cache(
    cache: ResultCache,
    task_names: TaskNameMemo,
    experiment: Experiment,
    runs: Sequence[VariantRun],
    directory: Optional[Path] = None,
    on_progress: Optional[Callable[[ShardProgress], None]] = None,
) -> CachedRunOutcome:
    """Run an experiment's work units, serving fully-cached ones without engine work.

    ``runs`` is the experiment's plan (:func:`~repro.experiments.runner.plan_runs`).
    Each unit whose rows are all cached is served (:func:`serve_cached`):
    it never runs, and binds only if ``task_names`` has not seen its
    point yet (a server warmed from a replayed cache, say).  The rest run
    through :func:`~repro.experiments.backends.run_checkpointed`, as one
    shard checkpointed into a job's ``directory`` with every progress
    observation passed to ``on_progress``, or with no checkpoint I/O
    inline.  Only computed rows are miss-counted and stored — first
    write wins, so a racing duplicate keeps the original bytes.
    """
    served: Dict[Tuple[str, str, str], ResultRow] = {}
    for run in runs:
        served.update(serve_cached(cache, task_names, run))
    rows = run_checkpointed(experiment, runs, directory, (0, 1), on_progress, served)
    computed = [
        result_row_to_dict(row) for row in rows if row.row_key() not in served
    ]
    cache.note_misses(len(computed))
    cache.store_rows(computed)
    resultset = ResultSet(experiment=experiment.name, rows=rows, seed=experiment.seed)
    return CachedRunOutcome(resultset, served=len(served), computed=len(computed))
