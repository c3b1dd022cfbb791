"""Shared service state: configuration, cache, job store, job executor.

One :class:`ServiceState` backs every router: the content-keyed
:class:`~repro.service.cache.ResultCache` (persisted as a
``service-cache.jsonl`` stream inside the data directory), the
:class:`~repro.service.requests.TaskNameMemo` that lets a cache hit
compute its key without building the scenario system, the
:class:`~repro.service.jobs.JobStore` ledger under ``data_dir/jobs/``,
and the :class:`~repro.service.jobs.JobWorker` that executes async
sweeps through the checkpointed loop shards and resumes run, writing
append-only shard checkpoints into the job's own directory, with every
:class:`~repro.experiments.backends.ShardProgress` observation forwarded
into the job's event stream.  A new job gets a new directory, so it
dedups against the cache: fully cached units are not recomputed, and a
fully cached sweep does no engine work.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Dict, Sequence, Tuple

from ..experiments.backends import ShardProgress, _run_checkpointed, shard_plans
from ..experiments.design import Experiment
from ..experiments.results import ResultRow, ResultSet
from ..experiments.runner import VariantRun
from ..io.experiments_io import result_row_from_dict, result_row_to_dict
from ..io.shards import load_checkpoint, shard_filename
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

        Planned once, as one shard: each fully cached work unit is
        served from the cache (hit-counted, as inline), and the shared
        checkpointed loop commits those rows to the job's directory and
        runs the rest.  Only computed rows are miss-counted and stored;
        ``from_cache`` means no unit was computed.
        """
        record = self.jobs.get(job_id)
        experiment = build_experiment(record.request, default_name=job_id)
        shard = shard_plans(experiment, 1)[0]
        served: Dict[Tuple[str, str, str], ResultRow] = {}
        for run in shard.runs:
            cached = serve_cached(self.cache, self.task_names, [run])
            if cached is not None:
                served.update(
                    zip(run.expected_rows(), map(result_row_from_dict, cached))
                )

        def on_progress(progress: ShardProgress) -> None:
            self.jobs.mark_progress(job_id, dataclasses.asdict(progress))

        rows = _run_checkpointed(
            experiment,
            shard.runs,
            shard.runs,
            self.jobs.job_dir(job_id),
            shard_filename(0, 1),
            shard.header(),
            on_progress=on_progress,
            served=served,
        )
        hits = {row.row_key() for row in served.values()}
        computed = [
            result_row_to_dict(row) for row in rows if row.row_key() not in hits
        ]
        self.cache.note_misses(len(computed))
        self.cache.store_rows(computed)
        return {
            "experiment": experiment.name,
            "rows": len(rows),
            "from_cache": not computed,
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
