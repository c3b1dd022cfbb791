"""Fault-tolerant work-queue scheduler for sharded experiment sweeps.

PR 5 defined the per-shard execution contract — deterministic
:class:`~repro.experiments.backends.ShardBackend` slices, append-only
hash-validated JSONL checkpoints, bit-identical merge — but dispatch
still happened by hand.  :class:`ShardScheduler` is the coordinator: it
enqueues one work item per shard, dispatches items to a pluggable
:class:`~repro.cluster.transports.WorkerTransport` (the local process
fleet first), watches each worker's heartbeat stream (progress = rows
appended to its shard log), and survives worker death:

* a worker that **exits non-zero** or goes **silent** past
  ``heartbeat_timeout`` is killed and its shard requeued with capped
  exponential backoff plus deterministic jitter;
* the retry runs against the existing checkpoint-dedup machinery, so it
  skips every row already committed — a crash-then-retry never
  duplicates or diverges, and the merged set stays bit-identical to a
  :class:`~repro.experiments.backends.SerialBackend` run
  (modulo :data:`~repro.experiments.results.WALL_CLOCK_METRICS`);
* every transition is appended to the structured scheduler event log
  (:mod:`repro.cluster.events`), so a crash at any instant leaves a
  recoverable, observable prefix — the discipline of the secure-logging
  literature in PAPERS.md.

On completion the scheduler auto-merges all shard logs into the
canonical :class:`~repro.experiments.results.ResultSet` by running the
resume path over the checkpoint directory — which doubles as a safety
net: any row a "completed" worker somehow failed to persist is computed
inline rather than lost.

Time is injectable (``clock`` / ``sleep``), so the requeue/backoff logic
is unit-testable against a fake clock with a scripted fake transport.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..core.exceptions import ClusterError
from ..experiments.backends import resume_experiment, shard_slice
from ..experiments.design import Experiment
from ..experiments.results import ResultSet
from ..experiments.runner import plan_runs
from ..simulation.pool import usable_cpus
from .events import SchedulerEventLog, scheduler_events_path
from .faults import FaultInjector
from .transports import LocalProcessFleet, ShardAssignment, WorkerTransport

__all__ = ["ShardScheduler", "backoff_delay"]


def backoff_delay(
    base: float,
    cap: float,
    jitter: float,
    seed: int,
    shard_index: int,
    failures: int,
) -> float:
    """Requeue delay after the ``failures``-th failure of one shard.

    Exponential in the failure count and capped *before* jitter:
    ``min(cap, base * 2**(failures - 1))``, then stretched by a
    deterministic jitter factor in ``[1, 1 + jitter]`` drawn from
    ``SeedSequence([seed, shard_index, failures])`` — every retry of
    every shard gets a different, but exactly reproducible, delay
    (jitter decorrelates retry storms without sacrificing replayability).
    """
    delay = min(cap, base * (2.0 ** (failures - 1)))
    if jitter > 0.0 and delay > 0.0:
        # REP001 exemplar: a generator outside simulation/rng.py is sound
        # exactly because its seed is an explicit SeedSequence over the
        # (seed, shard, failures) coordinates — every retry's jitter is
        # replayable with no ambient state.
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, shard_index, failures])
        )
        delay *= 1.0 + jitter * float(rng.random())
    return delay


class _QueuedShard:
    """One shard waiting (possibly under backoff) for a worker."""

    __slots__ = ("shard_index", "attempt", "ready_at")

    def __init__(self, shard_index: int, attempt: int, ready_at: float) -> None:
        self.shard_index = shard_index
        self.attempt = attempt
        self.ready_at = ready_at


class _RunningShard:
    """Scheduler-side state of one launched worker."""

    __slots__ = ("shard_index", "attempt", "handle", "last_rows", "last_advance")

    def __init__(self, shard_index: int, attempt: int, handle, now: float) -> None:
        self.shard_index = shard_index
        self.attempt = attempt
        self.handle = handle
        self.last_rows: Optional[int] = None
        self.last_advance = now


class ShardScheduler:
    """Dispatch an experiment's shards to workers until all complete.

    Parameters
    ----------
    experiment / shard_count / checkpoint_dir:
        What to run, how to partition it, and where the shard logs, the
        heartbeat streams, and the scheduler event log live.
    transport:
        The :class:`WorkerTransport` that actually runs assignments;
        default — a :class:`LocalProcessFleet`.
    max_workers:
        Concurrent worker cap, the one cap on the fleet; default — the
        usable CPUs (:func:`repro.simulation.pool.usable_cpus`).
    heartbeat_timeout:
        Seconds without observed progress (a fresh heartbeat with a
        higher committed-row count) before a worker is declared hung,
        killed, and its shard requeued.
    poll_interval:
        Scheduler poll cadence, seconds.
    backoff_base / backoff_cap / backoff_jitter:
        Requeue backoff: delay after the f-th failure is
        ``min(cap, base * 2**(f-1))`` stretched by a deterministic
        jitter factor in ``[1, 1 + jitter]`` (see :func:`backoff_delay`).
    max_attempts:
        Attempts allowed per shard before the run aborts with
        :class:`~repro.core.exceptions.ClusterError`.
    fault_injector:
        Optional :class:`~repro.cluster.faults.FaultInjector` forwarded
        to every assignment (tests and smoke drills only).
    clock / sleep:
        Injectable time source and sleeper (monotonic seconds); the
        fake-clock unit tests drive the whole requeue/backoff state
        machine synthetically.
    """

    def __init__(
        self,
        experiment: Experiment,
        shard_count: int,
        checkpoint_dir: str,
        *,
        transport: Optional[WorkerTransport] = None,
        max_workers: Optional[int] = None,
        heartbeat_timeout: float = 60.0,
        poll_interval: float = 0.05,
        backoff_base: float = 0.25,
        backoff_cap: float = 8.0,
        backoff_jitter: float = 0.1,
        max_attempts: int = 4,
        fault_injector: Optional[FaultInjector] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if shard_count < 1:
            raise ClusterError(f"shard_count must be >= 1, got {shard_count}")
        if heartbeat_timeout <= 0.0:
            raise ClusterError("heartbeat_timeout must be positive")
        if poll_interval <= 0.0:
            raise ClusterError("poll_interval must be positive")
        if backoff_base < 0.0 or backoff_cap < 0.0 or backoff_jitter < 0.0:
            raise ClusterError("backoff settings must be non-negative")
        if max_attempts < 1:
            raise ClusterError("max_attempts must be >= 1")
        self.experiment = experiment
        self.shard_count = shard_count
        self.checkpoint_dir = Path(checkpoint_dir)
        self.transport = transport if transport is not None else LocalProcessFleet()
        if max_workers is None:
            max_workers = usable_cpus()
        if max_workers < 1:
            raise ClusterError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = poll_interval
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        self.max_attempts = max_attempts
        self.fault_injector = fault_injector
        self._clock = clock
        self._sleep = sleep
        self.events_path = scheduler_events_path(self.checkpoint_dir)

    # -- the scheduling loop -----------------------------------------------------

    def run(self) -> ResultSet:
        """Dispatch every shard to completion, then merge and return the
        canonical result set."""
        # Plans once up front, so a bad experiment fails before any
        # worker launches; the queued records document the partition.
        runs = plan_runs(self.experiment)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        events = SchedulerEventLog(self.checkpoint_dir, clock=self._clock)
        pending: List[_QueuedShard] = []
        running: List[_RunningShard] = []
        try:
            now = self._clock()
            for index in range(self.shard_count):
                pending.append(_QueuedShard(index, attempt=1, ready_at=now))
                events.emit(
                    "queued",
                    shard=index,
                    attempt=1,
                    delay=0.0,
                    n_work_units=len(runs[shard_slice(index, self.shard_count)]),
                )
            while pending or running:
                self._launch_ready(pending, running, events)
                self._poll_running(pending, running, events)
                wait = self._next_wait(pending, running)
                if wait > 0.0:
                    self._sleep(wait)
        except BaseException:
            for entry in running:
                entry.handle.terminate()
            raise
        finally:
            events.close()

        # All shards reported complete: assemble the canonical set from
        # the checkpoint directory.  The resume path re-validates every
        # header and row hash, and computes inline anything a worker
        # failed to persist — a final safety net under the merge.
        merged = resume_experiment(self.experiment, str(self.checkpoint_dir))
        with SchedulerEventLog(self.checkpoint_dir, clock=self._clock) as events:
            events.emit("merged", rows=len(merged.rows), shards=self.shard_count)
        return merged

    def _launch_ready(
        self,
        pending: List[_QueuedShard],
        running: List[_RunningShard],
        events: SchedulerEventLog,
    ) -> None:
        now = self._clock()
        ready = sorted(
            (item for item in pending if item.ready_at <= now),
            key=lambda item: (item.ready_at, item.shard_index),
        )
        for item in ready:
            if len(running) >= self.max_workers:
                break
            pending.remove(item)
            assignment = ShardAssignment(
                experiment=self.experiment,
                shard_index=item.shard_index,
                shard_count=self.shard_count,
                checkpoint_dir=str(self.checkpoint_dir),
                attempt=item.attempt,
                fault=self.fault_injector,
            )
            handle = self.transport.launch(assignment)
            running.append(
                _RunningShard(item.shard_index, item.attempt, handle, self._clock())
            )
            events.emit("started", shard=item.shard_index, attempt=item.attempt)

    def _poll_running(
        self,
        pending: List[_QueuedShard],
        running: List[_RunningShard],
        events: SchedulerEventLog,
    ) -> None:
        for entry in list(running):
            exit_code = entry.handle.poll()
            if exit_code is not None:
                running.remove(entry)
                if exit_code == 0:
                    events.emit(
                        "completed",
                        shard=entry.shard_index,
                        attempt=entry.attempt,
                        rows=entry.handle.rows_committed(),
                    )
                else:
                    events.emit(
                        "worker-failed",
                        shard=entry.shard_index,
                        attempt=entry.attempt,
                        exit_code=exit_code,
                    )
                    self._requeue(entry, pending, running, events)
                continue
            rows = entry.handle.rows_committed()
            now = self._clock()
            if rows is not None and (entry.last_rows is None or rows > entry.last_rows):
                entry.last_rows = rows
                entry.last_advance = now
                events.emit(
                    "heartbeat",
                    shard=entry.shard_index,
                    attempt=entry.attempt,
                    rows=rows,
                )
            elif now - entry.last_advance > self.heartbeat_timeout:
                entry.handle.terminate()
                running.remove(entry)
                events.emit(
                    "timeout",
                    shard=entry.shard_index,
                    attempt=entry.attempt,
                    rows=entry.last_rows,
                    silent_for=round(now - entry.last_advance, 6),
                )
                self._requeue(entry, pending, running, events)

    def _requeue(
        self,
        entry: _RunningShard,
        pending: List[_QueuedShard],
        running: List[_RunningShard],
        events: SchedulerEventLog,
    ) -> None:
        failures = entry.attempt
        next_attempt = entry.attempt + 1
        if next_attempt > self.max_attempts:
            events.emit(
                "exhausted",
                shard=entry.shard_index,
                attempts=entry.attempt,
            )
            for other in running:
                other.handle.terminate()
            running.clear()
            raise ClusterError(
                f"shard {entry.shard_index} failed {entry.attempt} times "
                f"(max_attempts={self.max_attempts}); see event log at "
                f"{str(self.events_path)!r}"
            )
        delay = backoff_delay(
            self.backoff_base,
            self.backoff_cap,
            self.backoff_jitter,
            self.experiment.seed,
            entry.shard_index,
            failures,
        )
        pending.append(
            _QueuedShard(
                entry.shard_index,
                attempt=next_attempt,
                ready_at=self._clock() + delay,
            )
        )
        events.emit(
            "requeued",
            shard=entry.shard_index,
            attempt=next_attempt,
            delay=round(delay, 6),
        )

    def _next_wait(
        self, pending: List[_QueuedShard], running: List[_RunningShard]
    ) -> float:
        """How long to sleep before the next scheduling pass.

        With workers in flight: the poll cadence.  With only backed-off
        items pending: exactly until the earliest becomes ready (which a
        fake clock advances in one step, making unit-test timelines
        deterministic and real idle waits cheap).
        """
        if not pending and not running:
            return 0.0
        if running:
            return self.poll_interval
        now = self._clock()
        earliest = min(item.ready_at for item in pending)
        return max(earliest - now, 0.0)
