"""Pluggable execution backends for the experiments API.

This module separates *what to run* (the experiment, resolved into
:class:`~repro.experiments.runner.VariantRun` work units) from *how to
run it* — any object satisfying the :class:`ExecutionBackend` protocol:

* :class:`SerialBackend` — every variant inline, in declaration order
  (the default, and the executable specification the others must match).
* :class:`ProcessBackend` — one variant per task on the shared local
  process pool (:mod:`repro.simulation.pool`).
* :class:`ShardBackend` — one deterministic shard of the grid per
  invocation, for splitting a sweep across hosts.  The partition strides
  over variant indices, and per-variant seeds derive from the experiment
  seed and the variant index (never from execution order), so the union
  of all shards is **bit-identical** to the serial run — reassembled via
  :meth:`ResultSet.merge`.  With a ``checkpoint_dir``, completed rows
  persist append-only as JSONL shard files (:mod:`repro.io.shards`) and
  are skipped on re-invocation.

:func:`resume_experiment` (surfaced as :meth:`Experiment.resume`) closes
the loop: it loads every shard file in a checkpoint directory, validates
the headers and every row it would serve against the experiment, runs
only the rows that are missing, and returns the full canonical
:class:`ResultSet` — identical to an uninterrupted serial run.  A
shard, a resume and every service request (inline or a job) each plan
once and run through one loop, :func:`run_checkpointed`.  Which rows a
work unit produces, and what each records about how it was computed, is
the unit's own answer
(:meth:`~repro.experiments.runner.VariantRun.expected_rows`): this module
checkpoints and checks rows against it and keeps no copy of the rules.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..io.shards import (
    RESUME_FILENAME,
    ShardLogWriter,
    load_checkpoint,
    shard_filename,
)
from ..simulation import pool
from .design import Experiment
from .results import ExperimentError, ResultRow, ResultSet
from .runner import VariantRun, plan_runs, resolved_task_name, run_variant

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "ShardBackend",
    "ShardProgress",
    "shard_slice",
    "resolve_backend",
    "resume_experiment",
    "run_checkpointed",
]


@runtime_checkable
class ExecutionBackend(Protocol):
    """The protocol every execution strategy satisfies.

    A backend turns an :class:`Experiment` into a :class:`ResultSet`.
    Implementations must be *result-transparent*: whatever subset of the
    experiment they execute, every row they produce must be bit-identical
    to the corresponding row of a :class:`SerialBackend` run (per-variant
    seeds are derived from the experiment seed and the variant index, so
    this falls out of using :func:`~repro.experiments.runner.plan_runs`).
    """

    def execute(self, experiment: Experiment) -> ResultSet: ...


def _run_variants(runs: Sequence[VariantRun]) -> List[ResultRow]:
    """Every row of ``runs``, in order (one pool task's worth)."""
    return [row for run in runs for row in run_variant(run)]


@dataclasses.dataclass(frozen=True)
class SerialBackend:
    """Run every variant inline, in declaration order."""

    def execute(self, experiment: Experiment) -> ResultSet:
        rows = _run_variants(plan_runs(experiment))
        return ResultSet(experiment=experiment.name, rows=rows, seed=experiment.seed)


@dataclasses.dataclass(frozen=True)
class ProcessBackend:
    """Fan variants out over the shared local process pool.

    Each variant is one task on :mod:`repro.simulation.pool`, so a sweep
    pays no executor start-up after the first.  A variant running in a
    pool worker runs its chunks serially (the pool never nests), and a
    single variant, a single usable CPU or a multiprocessing child runs
    the sweep serially here.  Rows are identical to
    :class:`SerialBackend` because each work unit carries its own
    derived seed; only the ``chunk_workers`` telemetry can differ.
    """

    def execute(self, experiment: Experiment) -> ResultSet:
        runs = plan_runs(experiment)
        if len(runs) < 2 or not pool.can_fan_out():
            return SerialBackend().execute(experiment)
        rows, _ = pool.run_groups(_run_variants, runs, len(runs))
        return ResultSet(experiment=experiment.name, rows=rows, seed=experiment.seed)


def shard_slice(index: int, count: int) -> slice:
    """The strided slice of a plan that shard ``index`` of ``count`` runs.

    Shard ``k`` takes variant indices ``k, k + count, ...``, so shard
    sizes differ by at most one and every work unit keeps the seed it
    would have under a serial run.  Raises :class:`ExperimentError`
    unless ``count >= 1`` and ``0 <= index < count``.
    """
    if count < 1:
        raise ExperimentError(f"shard_count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ExperimentError(f"shard_index must be in [0, {count}), got {index}")
    return slice(index, None, count)


@dataclasses.dataclass(frozen=True)
class ShardProgress:
    """One progress observation of a checkpointed run, per work unit.

    Emitted by :func:`run_checkpointed` to its ``on_progress`` hook (a
    cluster worker's heartbeat stream, a service job's event stream)
    once before the first work unit and again after each one completes.
    ``rows_committed`` counts every row of this invocation's slice known
    to be durable (served plus freshly appended) — the monotone signal
    cluster workers forward as their heartbeat; ``rows_appended`` counts
    only the rows *this* invocation computed and wrote, which is what
    fault-injection row budgets meter.
    """

    variants_done: int
    variants_total: int
    rows_committed: int
    rows_appended: int


def _validate_header(
    header: Mapping[str, Any], experiment: Experiment, path: Path
) -> None:
    """Reject a shard file recorded for a different experiment definition."""
    expected = {
        "experiment": experiment.name,
        "seed": experiment.seed,
        "n_variants": len(experiment.variants),
    }
    mismatched = {
        name: (header.get(name), value)
        for name, value in expected.items()
        if header.get(name) != value
    }
    if mismatched:
        details = ", ".join(
            f"{name}: file has {found!r}, experiment has {wanted!r}"
            for name, (found, wanted) in sorted(mismatched.items())
        )
        raise ExperimentError(
            f"shard file {str(path)!r} belongs to a different experiment ({details})"
        )


def _validate_row(
    row: ResultRow, fields: Mapping[str, Any], task: str, path: Path
) -> None:
    """Reject a checkpointed row its work unit would not have produced.

    ``row_key`` pins only the variant's label, parameters and mode, so a
    row recorded under another seed, size, chunking, engine setting or
    task would otherwise be served as this experiment's result.
    ``fields`` is the row's entry in its unit's
    :meth:`~repro.experiments.runner.VariantRun.expected_rows`.
    """
    for name, wanted in {"task": task, **fields}.items():
        found = getattr(row, name)
        if found != wanted:
            raise ExperimentError(
                f"shard file {str(path)!r} belongs to a different experiment: "
                f"row {row.variant!r} (mode {row.mode!r}) has {name} {found!r}, "
                f"experiment has {wanted!r}"
            )


def _load_completed(
    entries: Sequence[Tuple[Path, Optional[Mapping[str, Any]], Sequence[ResultRow]]],
    experiment: Experiment,
    plan: Sequence[VariantRun],
) -> Dict[Tuple[str, str, str], ResultRow]:
    """Index checkpointed rows by identity, rejecting clashes across files.

    Every row a work unit of ``plan`` would serve is checked against that
    unit before anything runs (:func:`_validate_row`), so a mismatch
    raises before a single row is appended.
    """
    units = {
        key: (run, fields)
        for run in plan
        for key, fields in run.expected_rows().items()
    }
    tasks: Dict[int, str] = {}
    completed: Dict[Tuple[str, str, str], ResultRow] = {}
    origin: Dict[Tuple[str, str, str], Path] = {}
    for path, header, rows in entries:
        if header is None:
            continue  # torn first write — the file holds nothing committed
        _validate_header(header, experiment, path)
        for row in rows:
            key = row.row_key()
            if key in completed:
                raise ExperimentError(
                    f"checkpoint clash: row {row.variant!r} (mode {row.mode!r}) "
                    f"appears in both {str(origin[key])!r} and {str(path)!r}"
                )
            unit = units.get(key)
            if unit is not None:
                run, fields = unit
                if run.variant_index not in tasks:
                    tasks[run.variant_index] = resolved_task_name(run)
                _validate_row(row, fields, tasks[run.variant_index], path)
            completed[key] = row
            origin[key] = path
    return completed


def run_checkpointed(
    experiment: Experiment,
    plan: Sequence[VariantRun],
    directory: Optional[Path],
    shard: Optional[Tuple[int, int]],
    on_progress: Optional[Callable[[ShardProgress], None]] = None,
    served: Optional[Mapping[Tuple[str, str, str], ResultRow]] = None,
) -> List[ResultRow]:
    """Execute one shard of ``plan``, checkpointed; return its rows.

    ``shard`` is the ``(index, count)`` coordinate of the strided slice
    to run (see :func:`shard_slice`), written to
    :func:`~repro.io.shards.shard_filename`, or ``None`` for a resume:
    every unit, written to :data:`~repro.io.shards.RESUME_FILENAME`.
    With a ``directory``, its rows are checked against ``plan`` first
    (:func:`_load_completed`), and rows answered elsewhere (``served``,
    keyed by the planned row each answers) are committed to this run's
    file; without one, nothing is read or written.  Variants with every
    row at hand are served; any other is re-run and only the rows the
    checkpoint lacks are appended, through one held-open
    :class:`~repro.io.shards.ShardLogWriter`.  ``on_progress`` receives
    a :class:`ShardProgress` before the first work unit and after each.
    """
    index, count = shard or (None, None)
    runs = plan if shard is None else plan[shard_slice(*shard)]
    completed: Dict[Tuple[str, str, str], ResultRow] = {}
    writer: Optional[ShardLogWriter] = None
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        completed = _load_completed(load_checkpoint(directory), experiment, plan)
        header = {
            "experiment": experiment.name,
            "seed": experiment.seed,
            "shard_index": index,
            "shard_count": count,
            "n_variants": len(plan),
        }
        filename = RESUME_FILENAME if shard is None else shard_filename(*shard)
        writer = ShardLogWriter(directory / filename, header)
    rows: List[ResultRow] = []
    appended = 0
    done = 0

    def notify() -> None:
        if on_progress is not None:
            on_progress(
                ShardProgress(
                    variants_done=done,
                    variants_total=len(runs),
                    rows_committed=len(rows),
                    rows_appended=appended,
                )
            )

    try:
        if served:
            if writer is not None:
                writer.append(served.values())
            completed.update(served)
        notify()
        for run in runs:
            keys = list(run.expected_rows())
            if all(key in completed for key in keys):
                rows.extend(completed[key] for key in keys)
            else:
                produced = run_variant(run)
                fresh = [row for row in produced if row.row_key() not in completed]
                if writer is not None and fresh:
                    writer.append(fresh)
                    appended += len(fresh)
                rows.extend(completed.get(row.row_key(), row) for row in produced)
                completed.update({row.row_key(): row for row in fresh})
            done += 1
            notify()
    finally:
        if writer is not None:
            writer.close()
    return rows


@dataclasses.dataclass(frozen=True)
class ShardBackend:
    """Run one deterministic shard of the sweep — one invocation per host.

    ``shard_index`` / ``shard_count`` select the slice (see
    :func:`shard_slice`); the returned :class:`ResultSet` holds only this
    shard's rows, ready for :meth:`ResultSet.merge` with its siblings.
    With a ``checkpoint_dir``, rows persist append-only to this shard's
    JSONL file as each variant completes, and a re-invocation (after a
    crash, or a scheduler retry) skips everything already on disk —
    consulting *every* file in the directory, so rows another invocation
    already recovered (e.g. :meth:`Experiment.resume` writing to
    ``resume.jsonl``) are never recomputed or duplicated.  A caller that
    wants per-unit progress calls :func:`run_checkpointed` directly.
    """

    shard_index: int
    shard_count: int
    checkpoint_dir: Optional[str] = None

    def __post_init__(self) -> None:
        shard_slice(self.shard_index, self.shard_count)

    def execute(self, experiment: Experiment) -> ResultSet:
        rows = run_checkpointed(
            experiment,
            plan_runs(experiment),
            None if self.checkpoint_dir is None else Path(self.checkpoint_dir),
            (self.shard_index, self.shard_count),
        )
        return ResultSet(experiment=experiment.name, rows=rows, seed=experiment.seed)


def resume_experiment(experiment: Experiment, checkpoint_dir: str) -> ResultSet:
    """Complete an interrupted or partially-sharded run from its checkpoints.

    Loads every shard file in ``checkpoint_dir`` (validating each header
    and each row against the experiment and rejecting row clashes across
    files), runs only the variants with rows still missing — appending
    what it computes to ``resume.jsonl`` in the same append-only format —
    and returns the full canonical :class:`ResultSet`, bit-identical to
    an uninterrupted serial run.
    """
    directory = Path(checkpoint_dir)
    if not directory.is_dir():
        raise ExperimentError(
            f"checkpoint directory {str(directory)!r} does not exist"
        )
    rows = run_checkpointed(experiment, plan_runs(experiment), directory, None)
    return ResultSet(experiment=experiment.name, rows=rows, seed=experiment.seed)


def resolve_backend(backend: Optional[ExecutionBackend] = None) -> ExecutionBackend:
    """The backend an :meth:`Experiment.run` call asked for (serial by default)."""
    if backend is None:
        return SerialBackend()
    # runtime_checkable protocols only check attribute presence, so a
    # backend *class* (an easy typo for an instance) would slip through
    # and die later with an opaque TypeError.
    if isinstance(backend, type) or not isinstance(backend, ExecutionBackend):
        raise ExperimentError(
            f"backend {backend!r} does not satisfy the ExecutionBackend protocol "
            "(pass an instance with an execute(experiment) method)"
        )
    return backend
