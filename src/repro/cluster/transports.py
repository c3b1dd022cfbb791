"""Worker transports: how the scheduler launches and observes shard workers.

The scheduler (:mod:`repro.cluster.scheduler`) is transport-agnostic: it
talks to any object satisfying the small :class:`WorkerTransport` /
:class:`WorkerHandle` protocols, so a remote transport (SSH fleet, k8s
jobs, a cloud batch API) can slot in later without touching the
scheduling logic.  The first — and reference — transport is
:class:`LocalProcessFleet`: each shard runs as one OS process executing
``ShardBackend(shard_index, shard_count, checkpoint_dir)``, emitting a
heartbeat line (rows committed so far) to an append-only stream in the
checkpoint directory after every variant.

Liveness is *observed progress*, not trust: the scheduler polls the
heartbeat stream and the process exit code; a worker that dies (or goes
silent past the heartbeat timeout) is killed and its shard requeued.
The checkpoint-dedup machinery makes that safe — a retried shard skips
every row already committed, so a crash-then-retry never duplicates or
diverges.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from pathlib import Path
from typing import Any, Optional, Protocol, runtime_checkable

from ..experiments.backends import ShardBackend, ShardProgress
from ..experiments.design import Experiment
from ..io.eventlog import EventLogWriter, last_event
from ..io.shards import shard_filename
from .faults import FaultInjector

__all__ = [
    "ShardAssignment",
    "WorkerHandle",
    "WorkerTransport",
    "LocalProcessFleet",
    "LocalWorkerHandle",
    "heartbeat_filename",
    "run_assignment",
]


def heartbeat_filename(shard_index: int) -> str:
    """Name of one shard's heartbeat stream (a reserved telemetry name —
    see :data:`repro.io.shards.TELEMETRY_PREFIXES`)."""
    return f"heartbeat-{shard_index:04d}.jsonl"


@dataclasses.dataclass(frozen=True)
class ShardAssignment:
    """One unit of scheduler → transport work: run one shard, attempt N.

    Picklable by construction (frozen dataclasses of plain data all the
    way down), so any transport can ship it to another process or host.
    The heartbeat stream lives in the checkpoint directory under this
    shard's reserved telemetry name.
    """

    experiment: Experiment
    shard_index: int
    shard_count: int
    checkpoint_dir: str
    attempt: int = 1
    fault: Optional[FaultInjector] = None

    @property
    def heartbeat_path(self) -> Path:
        return Path(self.checkpoint_dir) / heartbeat_filename(self.shard_index)

    @property
    def shard_log_path(self) -> Path:
        return Path(self.checkpoint_dir) / shard_filename(
            self.shard_index, self.shard_count
        )


@runtime_checkable
class WorkerHandle(Protocol):
    """The scheduler's view of one launched worker."""

    def poll(self) -> Optional[int]:
        """Exit code once the worker has exited, ``None`` while running."""
        ...

    def rows_committed(self) -> Optional[int]:
        """Rows the worker last reported durable, ``None`` before any
        heartbeat.  Must be monotone non-decreasing."""
        ...

    def terminate(self) -> None:
        """Hard-stop the worker; must be idempotent and unconditional."""
        ...


@runtime_checkable
class WorkerTransport(Protocol):
    """A strategy for running shard assignments somewhere."""

    def launch(self, assignment: ShardAssignment) -> WorkerHandle: ...


def run_assignment(assignment: ShardAssignment) -> None:
    """Execute one shard assignment in the current process (worker body).

    Emits a heartbeat before the first variant and after each one —
    ``rows`` is the shard's committed-row count, the monotone progress
    signal the scheduler watches.  An armed :class:`FaultInjector`
    intercepts the same per-variant hook to kill the process, suppress
    heartbeats, or linger after completion.
    """
    fault = assignment.fault
    armed = fault is not None and fault.applies_to(
        assignment.shard_index, assignment.attempt
    )
    heartbeat = EventLogWriter(assignment.heartbeat_path)

    def on_progress(progress: ShardProgress) -> None:
        if armed and fault.should_kill(progress.rows_appended):
            heartbeat.close()
            fault.kill_now(assignment.shard_log_path)
        if armed and fault.should_drop_heartbeat(progress.rows_appended):
            return
        heartbeat.append(
            {
                "event": "heartbeat",
                "shard": assignment.shard_index,
                "attempt": assignment.attempt,
                "pid": os.getpid(),
                "rows": progress.rows_committed,
                "variants_done": progress.variants_done,
                "variants_total": progress.variants_total,
            }
        )

    backend = ShardBackend(
        shard_index=assignment.shard_index,
        shard_count=assignment.shard_count,
        checkpoint_dir=assignment.checkpoint_dir,
        on_progress=on_progress,
    )
    try:
        backend.execute(assignment.experiment)
    finally:
        heartbeat.close()
    if armed:
        fault.linger()


@dataclasses.dataclass
class LocalWorkerHandle:
    """Handle over one local worker process."""

    process: multiprocessing.process.BaseProcess
    assignment: ShardAssignment

    def poll(self) -> Optional[int]:
        return self.process.exitcode

    def rows_committed(self) -> Optional[int]:
        beat = last_event(self.assignment.heartbeat_path, kind="heartbeat")
        if beat is None:
            return None
        return int(beat["rows"])

    def terminate(self) -> None:
        # SIGKILL, not SIGTERM: a hung worker is by definition not
        # cooperating, and the append-only logs make hard kills safe.
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)


@dataclasses.dataclass
class LocalProcessFleet:
    """Run shard workers as local OS processes.

    ``max_workers`` is the fleet's concurrency capacity (``None`` — the
    machine's core count); the scheduler consults it when it has no
    explicit cap of its own.  Workers start with the platform's default
    multiprocessing start method.
    """

    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")

    def launch(self, assignment: ShardAssignment) -> LocalWorkerHandle:
        process = multiprocessing.Process(
            target=run_assignment,
            args=(assignment,),
            name=(
                f"repro-shard-{assignment.shard_index:04d}"
                f"-attempt-{assignment.attempt}"
            ),
            daemon=True,
        )
        process.start()
        return LocalWorkerHandle(process=process, assignment=assignment)
