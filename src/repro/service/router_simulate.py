"""``/simulate`` · ``/sweep`` · ``/jobs`` — execution and job observability.

Both run endpoints build the same validated
:class:`~repro.experiments.design.Experiment` and dispatch on cost:
requests under the configured ``inline_threshold`` receiver-round budget
run synchronously in the request (through the result cache, so repeats
do no engine work); anything larger — or any request with ``"detach":
true`` — is ledgered as an async job and returns ``202`` with the job
id.  Progress is observable two ways, both append-only: the job's event
stream (``/jobs/{id}/events``) and the shard checkpoint files the
backend writes into the job directory.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..experiments.runner import plan_runs
from ..io.experiments_io import resultset_to_dict
from .app import Request, Router
from .errors import BadRequestError
from .requests import build_experiment, require_body, run_cost
from .state import ServiceState

__all__ = ["router"]

router = Router()


def _dispatch(
    state: ServiceState, request: Request, default_name: str
) -> Tuple[int, Dict[str, Any]]:
    """Validate, then run inline or ledger an async job by cost."""
    body = dict(require_body(request.body))
    detach = body.pop("detach", None)
    if detach is not None and not isinstance(detach, bool):
        raise BadRequestError("field 'detach' must be a boolean", field="detach")
    experiment = build_experiment(body, default_name=default_name)
    runs = plan_runs(experiment)
    cost = run_cost(runs)
    if detach or cost > state.config.inline_threshold:
        record = state.submit_job(body)
        return 202, {
            "status": "submitted",
            "cost": cost,
            "job": record.describe(),
        }
    outcome = state.run_inline(experiment, runs)
    return 200, {
        "status": "completed",
        "cost": cost,
        "experiment": experiment.name,
        "resultset": resultset_to_dict(outcome.resultset),
        "cache": outcome.cache_summary(),
    }


@router.post("/simulate")
def simulate(
    state: ServiceState, request: Request
) -> Tuple[int, Dict[str, Any]]:
    """One parameter point (``params``); small runs answer inline."""
    return _dispatch(state, request, default_name="simulate")


@router.post("/sweep")
def sweep(state: ServiceState, request: Request) -> Tuple[int, Dict[str, Any]]:
    """A parameter grid (``grid`` + optional ``base``); same dispatch."""
    return _dispatch(state, request, default_name="sweep")


@router.get("/jobs")
def list_jobs(state: ServiceState, request: Request) -> Dict[str, Any]:
    return {"jobs": state.jobs.list_jobs()}


@router.get("/jobs/{job_id}")
def get_job(state: ServiceState, request: Request) -> Dict[str, Any]:
    return {"job": state.jobs.get(request.path_params["job_id"]).describe()}


@router.get("/jobs/{job_id}/events")
def job_events(state: ServiceState, request: Request) -> Dict[str, Any]:
    """The job's full append-only event stream, oldest first."""
    job_id = request.path_params["job_id"]
    return {"job_id": job_id, "events": state.jobs.events(job_id)}
