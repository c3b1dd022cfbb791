"""Shared service state: configuration, cache, job store, job executor.

One :class:`ServiceState` backs every router: the content-keyed
:class:`~repro.service.cache.ResultCache` (persisted as a
``service-cache.jsonl`` stream inside the data directory), the
:class:`~repro.service.requests.TaskNameMemo` that lets a cache hit
compute its key without building the scenario system, the
:class:`~repro.service.jobs.JobStore` ledger under ``data_dir/jobs/``,
and the :class:`~repro.service.jobs.JobWorker` that executes async
sweeps through the ordinary experiment machinery — a
:class:`~repro.experiments.backends.ShardBackend` writing append-only
shard checkpoints into the job's own directory, with every
:class:`~repro.experiments.backends.ShardProgress` observation forwarded
into the job's event stream.  A sweep whose rows are all cached is
assembled from the cache and written straight to the job checkpoint:
done, observable, and no engine work.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, Sequence

from ..experiments.backends import ShardBackend, ShardProgress, shard_plans
from ..experiments.design import Experiment
from ..experiments.results import ResultSet
from ..experiments.runner import VariantRun, plan_runs
from ..io.experiments_io import result_row_from_dict, result_row_to_dict
from ..io.shards import ShardLogWriter, load_checkpoint, shard_filename
from .cache import CACHE_FILENAME, ResultCache
from .errors import BadRequestError
from .jobs import JobRecord, JobStore, JobWorker
from .requests import (
    CachedRunOutcome,
    TaskNameMemo,
    build_experiment,
    run_with_cache,
    serve_cached,
)

__all__ = ["ServiceConfig", "ServiceState"]


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """How one service instance runs.

    ``inline_threshold`` is the receiver-round budget (see
    :func:`repro.service.requests.run_cost`) under which a simulate/sweep
    request runs synchronously in the request; anything costlier becomes
    an async job.  ``persist_cache=False`` keeps the result cache purely
    in-memory (tests); ``threaded_worker=False`` queues jobs until
    :meth:`ServiceState.run_pending_jobs` drains them (tests again).
    """

    data_dir: str
    inline_threshold: int = 100_000
    persist_cache: bool = True
    threaded_worker: bool = True


class ServiceState:
    """The cache, job ledger, and worker shared by all routers."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        root = Path(config.data_dir)
        root.mkdir(parents=True, exist_ok=True)
        cache_path = root / CACHE_FILENAME if config.persist_cache else None
        self.cache = ResultCache(cache_path)
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

        Fully-cached sweeps are assembled from the cache and appended to
        the job's checkpoint file — the job completes with zero engine
        work but its results stay addressable by job id like any other.
        Everything else runs through a single-shard checkpointing
        backend, so a retried or resubmitted job dedups against whatever
        its directory already committed.
        """
        record = self.jobs.get(job_id)
        experiment = build_experiment(record.request, default_name=job_id)
        job_dir = self.jobs.job_dir(job_id)

        runs = plan_runs(experiment)
        cached = serve_cached(self.cache, self.task_names, runs)
        if cached is not None:
            rows = [result_row_from_dict(payload) for payload in cached]
            plan = shard_plans(experiment, 1)[0]
            with ShardLogWriter(
                job_dir / shard_filename(0, 1), plan.header()
            ) as writer:
                writer.append(rows)
            self.jobs.mark_progress(
                job_id,
                {
                    "variants_done": len(runs),
                    "variants_total": len(runs),
                    "rows_committed": len(rows),
                    "rows_appended": 0,
                },
            )
            return {
                "experiment": experiment.name,
                "rows": len(rows),
                "from_cache": True,
            }

        def on_progress(progress: ShardProgress) -> None:
            self.jobs.mark_progress(job_id, dataclasses.asdict(progress))

        backend = ShardBackend(
            0, 1, checkpoint_dir=str(job_dir), on_progress=on_progress
        )
        resultset = backend.execute(experiment)
        payloads = [result_row_to_dict(row) for row in resultset.rows]
        self.cache.note_misses(len(payloads))
        self.cache.store_rows(payloads)
        return {
            "experiment": experiment.name,
            "rows": len(payloads),
            "from_cache": False,
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
