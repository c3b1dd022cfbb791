"""repro.service — simulation-as-a-service over the scenario registry.

A dependency-free WSGI layer (stdlib only, JSON bodies) exposing the
framework's analytic walks, simulations, and sweep machinery over HTTP,
with two load-bearing pieces underneath every router:

* a **content-hash result cache** (:mod:`repro.service.cache`): rows are
  provenance-complete and bit-identical across execution strategies, so
  a response is addressable by
  ``(variant_hash, seed, n_receivers, mode, rng_mode, rounds, task)``
  alone and a repeated query returns the exact bytes of the first
  computation, and
* an **append-only job ledger** (:mod:`repro.service.jobs`): async sweep
  jobs record every state transition as one JSONL event, execute through
  the ordinary checkpointing backend, and survive server crashes with
  the interruption visible in the stream rather than papered over.

Start a server with ``python -m repro.service serve --port N``; build an
in-process app for tests with :func:`create_app`.  See this package's
``README.md`` for the endpoint catalogue.
"""

from .app import Request, Router, ServiceApp, create_app
from .cache import CACHE_FILENAME, CacheKey, ResultCache, row_cache_key
from .errors import (
    ApiError,
    BadRequestError,
    MethodNotAllowedError,
    NotFoundError,
    ValidationFailure,
)
from .jobs import JOB_EVENTS_FILENAME, JobRecord, JobStore, JobWorker
from .requests import (
    TaskNameMemo,
    build_experiment,
    predicted_run_keys,
    run_cost,
    run_with_cache,
)
from .state import ServiceConfig, ServiceState

__all__ = [
    "ApiError",
    "BadRequestError",
    "CACHE_FILENAME",
    "CacheKey",
    "JOB_EVENTS_FILENAME",
    "JobRecord",
    "JobStore",
    "JobWorker",
    "MethodNotAllowedError",
    "NotFoundError",
    "Request",
    "ResultCache",
    "Router",
    "ServiceApp",
    "ServiceConfig",
    "ServiceState",
    "TaskNameMemo",
    "ValidationFailure",
    "build_experiment",
    "create_app",
    "predicted_run_keys",
    "row_cache_key",
    "run_cost",
    "run_with_cache",
]
