"""``/results`` — fetch, merge, import, and bit-exact reproduction.

Result rows are addressable two ways: by the job that computed them
(``/results/{job_id}``, read back from the job's append-only shard
checkpoint and reassembled canonically) or by pure content
(``/results/by-hash/{variant_hash}``, straight from the result cache).
``/results/reproduce`` closes the provenance loop over HTTP: it re-runs
a row from its recorded fields alone via
:func:`repro.experiments.results.reproduce_row` — which pins
``rng_mode="matrix"`` for archived rows predating the field, so rows
produced before the counter-stream default replay their original bits —
and reports whether the fresh metrics match the recorded ones modulo
wall-clock telemetry.
"""

from __future__ import annotations

from typing import Any, Dict

from ..experiments.results import (
    ExperimentError,
    ResultRow,
    ResultSet,
    WALL_CLOCK_METRICS,
    reproduce_row,
)
from ..experiments.runner import _simulation_metrics
from ..io.experiments_io import (
    result_row_from_dict,
    result_row_to_dict,
    resultset_from_dict,
    resultset_to_dict,
)
from .app import Request, Router
from .errors import BadRequestError, NotFoundError
from .requests import require_body
from .state import ServiceState

__all__ = ["router"]

router = Router()


def _strip_wall_clock(metrics: Dict[str, float]) -> Dict[str, float]:
    return {
        name: value
        for name, value in metrics.items()
        if name not in WALL_CLOCK_METRICS
    }


@router.get("/results/{job_id}")
def job_result(state: ServiceState, request: Request) -> Dict[str, Any]:
    """The merged, canonical result set of one completed job."""
    job_id = request.path_params["job_id"]
    resultset = state.load_job_result(job_id)
    return {"job_id": job_id, "resultset": resultset_to_dict(resultset)}


@router.get("/results/{job_id}/rows/{variant_hash}")
def job_row(state: ServiceState, request: Request) -> Dict[str, Any]:
    """One row of a completed job, addressed by content hash."""
    job_id = request.path_params["job_id"]
    variant_hash = request.path_params["variant_hash"]
    resultset = state.load_job_result(job_id)
    try:
        row = resultset.row_by_hash(variant_hash, mode=request.query.get("mode"))
    except ExperimentError as error:
        raise NotFoundError(str(error), variant_hash=variant_hash) from error
    return {"job_id": job_id, "row": result_row_to_dict(row)}


@router.get("/results/by-hash/{variant_hash}")
def rows_by_hash(state: ServiceState, request: Request) -> Dict[str, Any]:
    """Every cached row of one parameter point — content addressing."""
    variant_hash = request.path_params["variant_hash"]
    rows = state.cache.rows_by_hash(variant_hash)
    mode = request.query.get("mode")
    if mode is not None:
        rows = [row for row in rows if row.get("mode") == mode]
    if not rows:
        raise NotFoundError(
            f"no cached rows for variant hash {variant_hash!r}",
            variant_hash=variant_hash,
        )
    return {"variant_hash": variant_hash, "rows": rows}


@router.post("/results/merge")
def merge_resultsets(state: ServiceState, request: Request) -> Dict[str, Any]:
    """Reassemble shard/partial result-set payloads canonically."""
    body = require_body(request.body)
    payloads = body.get("resultsets")
    if not isinstance(payloads, list) or not payloads:
        raise BadRequestError(
            "field 'resultsets' must be a non-empty list of result-set objects",
            field="resultsets",
        )
    sets = [resultset_from_dict(payload) for payload in payloads]
    merged = ResultSet.merge(*sets)
    return {"resultset": resultset_to_dict(merged)}


@router.post("/results/import")
def import_resultset(state: ServiceState, request: Request) -> Dict[str, Any]:
    """Load an archived result set into the content cache.

    Parsing re-validates every row's recorded ``variant_hash`` against
    its parameters, so tampered archives are rejected; accepted rows
    become cache entries addressable by hash and eligible to serve
    future identical queries byte-for-byte.  Rows recorded at a
    non-default ``batch_size`` are counted in ``rows`` but never
    inserted: their bits differ from what the service would compute.
    """
    body = require_body(request.body)
    payload = body.get("resultset")
    if not isinstance(payload, dict):
        raise BadRequestError(
            "field 'resultset' must be a result-set object", field="resultset"
        )
    resultset = resultset_from_dict(payload)
    rows = [result_row_to_dict(row) for row in resultset.rows]
    inserted = state.cache.store_rows(rows)
    return {
        "experiment": resultset.experiment,
        "rows": len(rows),
        "inserted": inserted,
    }


def _row_for_reproduce(state: ServiceState, body: Dict[str, Any]) -> ResultRow:
    """The row to re-run: given inline, or looked up in the cache by hash."""
    if "row" in body:
        if not isinstance(body["row"], dict):
            raise BadRequestError("field 'row' must be a row object", field="row")
        return result_row_from_dict(body["row"])
    variant_hash = body.get("variant_hash")
    if not isinstance(variant_hash, str):
        raise BadRequestError(
            "pass either 'row' (a row object) or 'variant_hash' (a cached row)"
        )
    mode = body.get("mode")
    candidates = [
        row
        for row in state.cache.rows_by_hash(variant_hash)
        if row.get("mode") != "analytic"
        and (mode is None or row.get("mode") == mode)
    ]
    if not candidates:
        raise NotFoundError(
            f"no cached simulated row for variant hash {variant_hash!r}",
            variant_hash=variant_hash,
        )
    if len(candidates) > 1:
        raise BadRequestError(
            f"variant hash {variant_hash!r} matches {len(candidates)} cached "
            "simulated rows; disambiguate with 'mode' or pass the row inline",
            variant_hash=variant_hash,
        )
    return result_row_from_dict(candidates[0])


@router.post("/results/reproduce")
def reproduce(state: ServiceState, request: Request) -> Dict[str, Any]:
    """Re-run one simulated row from provenance and compare bit-identity.

    Delegates to :func:`repro.experiments.results.reproduce_row`, which
    carries the legacy pin: a row without a recorded ``rng_mode`` (the
    pre-counter archives) replays under the matrix source it was drawn
    from.  ``match`` compares the fresh metrics to the recorded ones
    modulo :data:`WALL_CLOCK_METRICS`.
    """
    body = dict(require_body(request.body))
    row = _row_for_reproduce(state, body)
    result = reproduce_row(row)
    fresh = _strip_wall_clock(_simulation_metrics(result))
    recorded = _strip_wall_clock(dict(row.metrics))
    return {
        "variant_hash": row.variant_hash,
        "match": fresh == recorded,
        "rng_mode": result.rng_mode,
        "metrics": fresh,
        "recorded_metrics": recorded,
    }
