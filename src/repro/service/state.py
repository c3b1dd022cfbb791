"""Shared service state: configuration, cache, job store, job executor.

One :class:`ServiceState` backs every router: the content-keyed
:class:`~repro.service.cache.ResultCache` (persisted as a
``service-cache.jsonl`` stream inside the data directory), the
:class:`~repro.service.requests.TaskNameMemo` that lets a cache hit
compute its key without building the scenario system, the
:class:`~repro.service.jobs.JobStore` ledger under ``data_dir/jobs/``,
and the :class:`~repro.service.jobs.JobWorker` that executes async
sweeps.  Inline requests and jobs share one run function,
:func:`~repro.service.requests.run_with_cache`; a job passes it the
job's directory for append-only shard checkpoints and a hook that
forwards every :class:`~repro.experiments.backends.ShardProgress` into
the job's event stream.  A new job gets a new directory, so it dedups
against the cache: fully cached units are not recomputed, and a fully
cached sweep does no engine work.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, Sequence

from ..experiments.backends import ShardProgress
from ..experiments.design import Experiment
from ..experiments.results import ResultSet
from ..experiments.runner import VariantRun, plan_runs
from ..io.shards import load_checkpoint
from .cache import CACHE_FILENAME, ResultCache
from .errors import BadRequestError
from .jobs import JobRecord, JobStore, JobWorker
from .requests import (
    CachedRunOutcome,
    TaskNameMemo,
    build_experiment,
    run_with_cache,
)

__all__ = ["ServiceConfig", "ServiceState"]


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """How one service instance runs.

    ``inline_threshold`` is the receiver-round budget (see
    :func:`repro.service.requests.run_cost`) under which a simulate/sweep
    request runs synchronously in the request; anything costlier becomes
    an async job.  Both run through the same cached path, and the result
    cache is always backed by ``data_dir/service-cache.jsonl``.
    ``threaded_worker=False`` queues jobs until
    :meth:`ServiceState.run_pending_jobs` drains them (tests).
    """

    data_dir: str
    inline_threshold: int = 100_000
    threaded_worker: bool = True


class ServiceState:
    """The cache, job ledger, and worker shared by all routers."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        root = Path(config.data_dir)
        root.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(root / CACHE_FILENAME)
        self.task_names = TaskNameMemo()
        self.jobs = JobStore(root / "jobs")
        self.worker = JobWorker(
            self.jobs, self._execute_job, threaded=config.threaded_worker
        )

    # -- async jobs --------------------------------------------------------------

    def submit_job(self, request: Dict[str, Any]) -> JobRecord:
        """Ledger a validated simulate/sweep request and queue it."""
        record = self.jobs.submit(request)
        self.worker.submit(record.job_id)
        return record

    def run_pending_jobs(self) -> int:
        """Drain queued jobs synchronously (only meaningful in test mode)."""
        return self.worker.run_pending()

    def _execute_job(self, job_id: str) -> Dict[str, Any]:
        """Run one ledgered sweep; the default :class:`JobWorker` executor.

        Planned once and run like an inline request
        (:func:`~repro.service.requests.run_with_cache`), checkpointed
        into the job's directory with every progress observation in its
        ledger; ``from_cache`` means no unit was computed.
        """
        record = self.jobs.get(job_id)
        experiment = build_experiment(record.request, default_name=job_id)

        def on_progress(progress: ShardProgress) -> None:
            self.jobs.mark_progress(job_id, dataclasses.asdict(progress))

        runs = plan_runs(experiment)
        directory = self.jobs.job_dir(job_id)
        outcome = run_with_cache(
            self.cache, self.task_names, experiment, runs, directory, on_progress
        )
        return {
            "experiment": experiment.name,
            "rows": len(outcome.resultset.rows),
            "from_cache": not outcome.computed,
        }

    # -- results -----------------------------------------------------------------

    def load_job_result(self, job_id: str) -> ResultSet:
        """The merged, canonical result set of one completed job."""
        record = self.jobs.get(job_id)
        if record.status != "done":
            raise BadRequestError(
                f"job {job_id!r} is {record.status!r}, not done",
                job=job_id,
                status=record.status,
            )
        entries = load_checkpoint(self.jobs.job_dir(job_id))
        rows = [
            row
            for _, header, shard_rows in entries
            if header is not None
            for row in shard_rows
        ]
        experiment = str(record.summary.get("experiment", job_id))
        seed = record.request.get("seed", 0)
        return ResultSet.merge(
            ResultSet(experiment=experiment, rows=rows, seed=seed)
        )

    # -- inline execution (routers call through for shared accounting) -----------

    def run_inline(
        self, experiment: Experiment, runs: Sequence[VariantRun]
    ) -> CachedRunOutcome:
        return run_with_cache(self.cache, self.task_names, experiment, runs)

    # -- lifecycle ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {"cache": self.cache.stats(), "jobs": self.jobs.stats()}

    def close(self) -> None:
        self.worker.close()
        self.jobs.close()
        self.cache.close()
