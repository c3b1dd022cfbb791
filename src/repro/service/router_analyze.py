"""``/analyze`` — the synchronous analytic walk, always inline, cached.

The analytic path is cheap (no receivers, no rounds), so it never
becomes a job — but it *is* served through the content-keyed cache:
an analytic row's identity is ``(variant_hash, task)`` alone, so a
repeated policy question costs one dictionary lookup.
"""

from __future__ import annotations

from typing import Any, Dict

from ..experiments.design import Experiment, VariantSpec
from ..experiments.runner import plan_runs
from ..io.experiments_io import resultset_to_dict
from .app import Request, Router
from .errors import BadRequestError
from .requests import (
    body_str,
    check_fields,
    require_body,
    validate_params,
)
from .state import ServiceState

__all__ = ["router"]

router = Router()

#: Body fields ``/analyze`` accepts — no simulation settings by design.
ANALYZE_FIELDS = ("scenario", "params", "task", "name")


@router.post("/analyze")
def analyze(state: ServiceState, request: Request) -> Dict[str, Any]:
    """Run (or serve) the analytic walk over one scenario variant."""
    body = require_body(request.body)
    check_fields(body, ANALYZE_FIELDS)
    scenario = body_str(body, "scenario")
    if scenario is None:
        raise BadRequestError("field 'scenario' is required", field="scenario")
    params = validate_params(scenario, body.get("params", {}))
    name = body_str(body, "name", "analyze") or "analyze"
    experiment = Experiment(
        name=name,
        variants=(VariantSpec(scenario=scenario, params=params),),
        paths=("analyze",),
        task=body_str(body, "task"),
        seed_strategy="shared",
    )
    outcome = state.run_inline(experiment, plan_runs(experiment))
    payload = resultset_to_dict(outcome.resultset)
    return {
        "status": "completed",
        "experiment": experiment.name,
        "row": payload["rows"][0],
        "cache": outcome.cache_summary(),
    }
