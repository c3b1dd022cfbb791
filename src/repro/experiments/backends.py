"""Pluggable execution backends for the experiments API.

``Experiment.run()`` historically hard-wired a single-machine
:class:`concurrent.futures.ProcessPoolExecutor` behind ``max_workers=``.
This module separates *what to run* (the experiment, resolved into
:class:`~repro.experiments.runner.VariantRun` work units) from *how to
run it* — any object satisfying the :class:`ExecutionBackend` protocol:

* :class:`SerialBackend` — every variant inline, in declaration order
  (the default, and the executable specification the others must match).
* :class:`ProcessBackend` — a local process pool of ``max_workers``
  processes.
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
:class:`ResultSet` — identical to an uninterrupted serial run.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
from pathlib import Path
from typing import (
    Any,
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
from ..simulation.engine import SimulationConfig
from ..systems.scenario import variant_hash as compute_variant_hash
from .design import Experiment
from .results import ExperimentError, ResultRow, ResultSet
from .runner import VariantRun, plan_runs, resolved_task_name, run_variant

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "ShardBackend",
    "ShardPlan",
    "ShardProgress",
    "shard_plans",
    "resolve_backend",
    "resume_experiment",
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


@dataclasses.dataclass(frozen=True)
class SerialBackend:
    """Run every variant inline, in declaration order."""

    def execute(self, experiment: Experiment) -> ResultSet:
        rows = [row for run in plan_runs(experiment) for row in run_variant(run)]
        return ResultSet(experiment=experiment.name, rows=rows, seed=experiment.seed)


@dataclasses.dataclass(frozen=True)
class ProcessBackend:
    """Fan variants out over a local :class:`ProcessPoolExecutor`.

    ``max_workers`` of ``None`` uses the machine's core count; the pool
    is always bounded by the variant count, and a pool of one (or a
    single-variant experiment) degrades to the serial path.  Rows are
    identical to :class:`SerialBackend` because each work unit carries
    its own derived seed.
    """

    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ExperimentError("max_workers must be >= 1")

    def execute(self, experiment: Experiment) -> ResultSet:
        runs = plan_runs(experiment)
        workers = min(self.max_workers or os.cpu_count() or 1, len(runs))
        if workers <= 1 or len(runs) <= 1:
            return SerialBackend().execute(experiment)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            row_lists = list(pool.map(run_variant, runs))
        return ResultSet(
            experiment=experiment.name,
            rows=[row for rows in row_lists for row in rows],
            seed=experiment.seed,
        )


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """One shard's deterministic slice of an experiment's work units."""

    experiment: str
    seed: int
    shard_index: int
    shard_count: int
    n_variants: int
    runs: Tuple[VariantRun, ...]

    def header(self) -> Dict[str, Any]:
        """The provenance header written into this shard's JSONL file."""
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "n_variants": self.n_variants,
        }

    def expected_row_keys(self) -> List[Tuple[str, str, str]]:
        """Every row identity this shard will produce, in emission order."""
        return [key for run in self.runs for key in _expected_row_keys(run)]


def shard_plans(experiment: Experiment, shard_count: int) -> List[ShardPlan]:
    """Deterministically partition an experiment across ``shard_count`` shards.

    Shard ``k`` takes variant indices ``k, k + shard_count, ...`` — a
    strided partition, so shard sizes differ by at most one and every
    work unit keeps the seed it would have under a serial run.
    """
    if shard_count < 1:
        raise ExperimentError(f"shard_count must be >= 1, got {shard_count}")
    runs = plan_runs(experiment)
    return [
        ShardPlan(
            experiment=experiment.name,
            seed=experiment.seed,
            shard_index=index,
            shard_count=shard_count,
            n_variants=len(runs),
            runs=tuple(runs[index::shard_count]),
        )
        for index in range(shard_count)
    ]


def _expected_row_keys(run: VariantRun) -> List[Tuple[str, str, str]]:
    """The row identities one work unit produces, in emission order."""
    point_hash = compute_variant_hash(run.scenario, run.params)
    keys: List[Tuple[str, str, str]] = []
    if "analyze" in run.paths:
        keys.append((run.label, point_hash, "analytic"))
    if "simulate" in run.paths:
        keys.append((run.label, point_hash, run.mode))
    return keys


@dataclasses.dataclass(frozen=True)
class ShardProgress:
    """One progress observation of a checkpointed run, per work unit.

    Emitted through the ``on_progress`` hook of :class:`ShardBackend`
    (and :func:`resume_experiment`) once before the first work unit and
    again after each one completes.  ``rows_committed`` counts every row
    of this invocation's slice known to be durable (checkpoint-served
    plus freshly appended) — the monotone signal cluster workers forward
    as their heartbeat; ``rows_appended`` counts only what *this*
    invocation wrote, which is what fault-injection row budgets meter.
    """

    variants_done: int
    variants_total: int
    rows_committed: int
    rows_appended: int


def _run_with_checkpoint(
    runs: Sequence[VariantRun],
    completed: Dict[Tuple[str, str, str], ResultRow],
    checkpoint_path: Optional[Path],
    header: Mapping[str, Any],
    on_progress: Optional[Any] = None,
) -> List[ResultRow]:
    """Execute work units, skipping rows already in ``completed``.

    Finished variants are served straight from the checkpoint; a variant
    with any row missing is re-run, and only the rows the checkpoint
    lacks are appended (so a run torn between a variant's analytic and
    simulated appends never duplicates the surviving row).  ``completed``
    is updated in place.  The shard log is held open across the whole
    run (:class:`~repro.io.shards.ShardLogWriter`), so the torn-tail
    recovery scan happens once per invocation and each append is
    O(rows written) — a scheduler retry costs O(rows), not O(rows²).
    ``on_progress`` (if given) receives a :class:`ShardProgress` before
    the first work unit and after each one.
    """
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

    writer = (
        ShardLogWriter(checkpoint_path, header)
        if checkpoint_path is not None
        else None
    )
    try:
        notify()
        for run in runs:
            keys = _expected_row_keys(run)
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


#: The ``batch_size`` a row records when its experiment leaves it unset.
_ENGINE_DEFAULT_BATCH_SIZE = int(
    SimulationConfig.__dataclass_fields__["batch_size"].default  # type: ignore[arg-type]
)


def _validate_row(
    row: ResultRow, run: VariantRun, task: str, path: Path
) -> None:
    """Reject a checkpointed row its work unit would not have produced.

    ``row_key`` pins only the variant's label, parameters and mode, so a
    row recorded under another seed, size, chunking or task would
    otherwise be served as this experiment's result.
    """
    expected: Dict[str, Any] = {"task": task}
    if row.simulated:
        expected["seed"] = run.seed
        expected["n_receivers"] = run.n_receivers
        expected["batch_size"] = run.batch_size or _ENGINE_DEFAULT_BATCH_SIZE
    for name, wanted in expected.items():
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
) -> Dict[Tuple[str, str, str], ResultRow]:
    """Index checkpointed rows by identity, rejecting clashes across files.

    Every row a work unit would serve is checked against that unit before
    anything runs (:func:`_validate_row`), so a mismatch raises before a
    single row is appended.
    """
    units = {key: run for run in plan_runs(experiment) for key in _expected_row_keys(run)}
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
            run = units.get(key)
            if run is not None:
                if run.variant_index not in tasks:
                    tasks[run.variant_index] = resolved_task_name(run)
                _validate_row(row, run, tasks[run.variant_index], path)
            completed[key] = row
            origin[key] = path
    return completed


@dataclasses.dataclass(frozen=True)
class ShardBackend:
    """Run one deterministic shard of the sweep — one invocation per host.

    ``shard_index`` / ``shard_count`` select the slice (see
    :func:`shard_plans`); the returned :class:`ResultSet` holds only this
    shard's rows, ready for :meth:`ResultSet.merge` with its siblings.
    With a ``checkpoint_dir``, rows persist append-only to this shard's
    JSONL file as each variant completes, and a re-invocation (after a
    crash, or a scheduler retry) skips everything already on disk —
    consulting *every* file in the directory, so rows another invocation
    already recovered (e.g. :meth:`Experiment.resume` writing to
    ``resume.jsonl``) are never recomputed or duplicated.

    ``on_progress`` (excluded from backend identity; not picklable
    machinery — cluster workers construct it locally) observes a
    :class:`ShardProgress` after each work unit: the heartbeat hook
    :mod:`repro.cluster` workers report liveness through.
    """

    shard_index: int
    shard_count: int
    checkpoint_dir: Optional[str] = None
    on_progress: Optional[Any] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ExperimentError(f"shard_count must be >= 1, got {self.shard_count}")
        if not 0 <= self.shard_index < self.shard_count:
            raise ExperimentError(
                f"shard_index must be in [0, {self.shard_count}), got {self.shard_index}"
            )

    def plan(self, experiment: Experiment) -> ShardPlan:
        """This shard's slice of the experiment's work units."""
        return shard_plans(experiment, self.shard_count)[self.shard_index]

    def execute(self, experiment: Experiment) -> ResultSet:
        plan = self.plan(experiment)
        checkpoint_path: Optional[Path] = None
        completed: Dict[Tuple[str, str, str], ResultRow] = {}
        if self.checkpoint_dir is not None:
            directory = Path(self.checkpoint_dir)
            directory.mkdir(parents=True, exist_ok=True)
            checkpoint_path = directory / shard_filename(
                self.shard_index, self.shard_count
            )
            completed = _load_completed(load_checkpoint(directory), experiment)
        rows = _run_with_checkpoint(
            plan.runs, completed, checkpoint_path, plan.header(),
            on_progress=self.on_progress,
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
    runs = plan_runs(experiment)
    completed = _load_completed(load_checkpoint(directory), experiment)
    resume_header = {
        "experiment": experiment.name,
        "seed": experiment.seed,
        "shard_index": None,
        "shard_count": None,
        "n_variants": len(runs),
    }
    rows = _run_with_checkpoint(
        runs, completed, directory / RESUME_FILENAME, resume_header
    )
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
