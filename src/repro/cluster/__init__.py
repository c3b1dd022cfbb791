"""Fault-tolerant cluster scheduling for sharded experiment sweeps.

The coordinator layer over the per-shard execution contract of
:mod:`repro.experiments.backends`: a work-queue scheduler
(:class:`ShardScheduler`) that dispatches one work item per shard to a
pluggable worker transport (:class:`LocalProcessFleet` first), watches
heartbeats (progress = rows appended to each shard's append-only log),
requeues dead or silent shards with capped exponential backoff +
deterministic jitter, and auto-merges the shard logs into the canonical
:class:`~repro.experiments.results.ResultSet` — bit-identical, modulo
:data:`~repro.experiments.results.WALL_CLOCK_METRICS`, to a serial run
of the same experiment, no matter how many workers crashed along the
way.

>>> from repro.cluster import ShardScheduler
>>> scheduler = ShardScheduler(
...     experiment, shard_count=4, checkpoint_dir="ckpt", max_workers=2,
... )
>>> merged = scheduler.run()     # survives worker death; merged == serial

Every state transition is appended to a structured JSONL event log
(:mod:`repro.cluster.events`) alongside the shard logs, and the
deterministic :class:`FaultInjector` (:mod:`repro.cluster.faults`) lets
tests — and shell drills via ``python -m repro.cluster run --inject-*``
— crash workers at exact, reproducible points.
"""

from ..core.exceptions import ClusterError
from .events import (
    EVENT_KINDS,
    EVENTS_FILENAME,
    SchedulerEventLog,
    read_scheduler_events,
    scheduler_events_path,
)
from .faults import FAULT_KILL_EXIT_CODE, FaultInjector
from .scheduler import ShardScheduler, backoff_delay
from .transports import (
    LocalProcessFleet,
    LocalWorkerHandle,
    ShardAssignment,
    WorkerHandle,
    WorkerTransport,
    heartbeat_filename,
    run_assignment,
)

__all__ = [
    "ShardScheduler",
    "backoff_delay",
    "ClusterError",
    "WorkerTransport",
    "WorkerHandle",
    "LocalProcessFleet",
    "LocalWorkerHandle",
    "ShardAssignment",
    "heartbeat_filename",
    "run_assignment",
    "FaultInjector",
    "FAULT_KILL_EXIT_CODE",
    "SchedulerEventLog",
    "EVENT_KINDS",
    "EVENTS_FILENAME",
    "scheduler_events_path",
    "read_scheduler_events",
]
