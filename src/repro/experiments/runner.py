"""Experiment work units: resolved variant plans and their execution.

Each variant of an :class:`~repro.experiments.design.Experiment` becomes
one picklable :class:`VariantRun` work unit; :func:`run_variant` re-binds
the scenario from the registry inside the executing process (the registry
is populated by import side effects, so worker processes see the same
scenarios) and returns the result rows.  Every unit carries its own
derived seed and its variant's declaration index, so any execution
strategy — inline, a process pool, or one shard per host (see
:mod:`repro.experiments.backends`) — produces identical rows in a
reconstructible order.  :func:`execute` is the function form of
:meth:`~repro.experiments.design.Experiment.run`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from ..core.analysis import analyze_system
from ..simulation.metrics import SimulationResult
from ..systems.scenario import get_scenario
from .design import Experiment
from .results import WALL_CLOCK_METRICS, ResultRow, ResultSet

if TYPE_CHECKING:  # deferred: backends imports this module
    from .backends import ExecutionBackend

__all__ = [
    "VariantRun",
    "plan_runs",
    "resolved_task_name",
    "run_variant",
    "execute",
    "WALL_CLOCK_METRICS",  # canonical home: repro.experiments.results
]


@dataclasses.dataclass(frozen=True)
class VariantRun:
    """One variant's fully-resolved, picklable execution plan."""

    experiment: str
    scenario: str
    label: str
    params: Mapping[str, Any]
    seed: int
    n_receivers: int
    mode: str
    paths: Tuple[str, ...]
    task: Optional[str] = None
    batch_size: Optional[int] = None
    variant_index: int = 0


def plan_runs(experiment: Experiment) -> List[VariantRun]:
    """Resolve every variant of an experiment into a work unit."""
    return [
        VariantRun(
            experiment=experiment.name,
            scenario=variant.scenario,
            label=variant.resolved_label(),
            params=dict(variant.params),
            seed=experiment.variant_seed(index),
            n_receivers=experiment.n_receivers,
            mode=experiment.mode,
            paths=experiment.paths,
            task=experiment.task,
            batch_size=experiment.batch_size,
            variant_index=index,
        )
        for index, variant in enumerate(experiment.variants)
    ]


def resolved_task_name(run: VariantRun) -> str:
    """The task name the rows of a work unit record (binds the variant)."""
    variant = get_scenario(run.scenario).bind(**dict(run.params))
    return variant.resolve_task(variant.system(), run.task).name


def _simulation_metrics(result: SimulationResult) -> Dict[str, float]:
    """The flat metric dictionary recorded for a simulated row.

    Multi-round runs additionally record each round's headline rates under
    ``round<k>:`` keys, so a result row carries the full decay curve.
    Runs with tracing enabled carry the per-stage funnel under
    ``funnel:<checkpoint>:`` keys (survival and conditional-failure rates
    per pipeline checkpoint).  Wall-clock telemetry rides along under
    ``perf:`` keys (elapsed seconds, receiver-round throughput, chunks
    processed) — machine-dependent, so provenance rather than identity.
    """
    metrics = result.summary()
    metrics["failure_rate"] = result.failure_rate()
    if result.elapsed_seconds is not None:
        metrics["perf:elapsed_seconds"] = result.elapsed_seconds
        throughput = result.throughput()
        if throughput is not None:
            metrics["perf:receiver_rounds_per_second"] = throughput
    if result.chunks:
        metrics["perf:chunks"] = float(result.chunks)
    for stage, fraction in result.stage_failure_fractions().items():
        metrics[f"stage_failure:{stage.value}"] = fraction
    if result.funnel is not None:
        metrics.update(result.funnel.summary())
    if result.rounds > 1:
        for round_tally in result.round_tallies:
            prefix = f"round{round_tally.round_index}"
            metrics[f"{prefix}:protection_rate"] = round_tally.protection_rate()
            metrics[f"{prefix}:heed_rate"] = round_tally.heed_rate()
            metrics[f"{prefix}:notice_rate"] = round_tally.notice_rate()
    return metrics


def run_variant(run: VariantRun) -> List[ResultRow]:
    """Execute one variant (in this process) and return its result rows."""
    variant = get_scenario(run.scenario).bind(**dict(run.params))
    rows: List[ResultRow] = []

    if "analyze" in run.paths:
        system = variant.system()
        analysis = analyze_system(system)
        task_name = variant.resolve_task(system, run.task).name
        task_analysis = analysis.task_analyses.get(task_name)
        metrics: Dict[str, float] = {
            "mean_success_probability": analysis.mean_success_probability(),
        }
        if task_analysis is not None:
            metrics["success_probability"] = task_analysis.success_probability
            metrics["total_risk"] = task_analysis.failures.total_risk()
        rows.append(
            ResultRow(
                experiment=run.experiment,
                scenario=run.scenario,
                variant=run.label,
                params=run.params,
                mode="analytic",
                metrics=metrics,
                task=task_name,
                variant_index=run.variant_index,
            )
        )

    if "simulate" in run.paths:
        overrides: Dict[str, Any] = {}
        if run.batch_size is not None:
            overrides["batch_size"] = run.batch_size
        result = variant.simulate(
            run.n_receivers, seed=run.seed, task=run.task, mode=run.mode, **overrides
        )
        rows.append(
            ResultRow(
                experiment=run.experiment,
                scenario=run.scenario,
                variant=run.label,
                params=run.params,
                mode=run.mode,
                metrics=_simulation_metrics(result),
                seed=run.seed,
                n_receivers=run.n_receivers,
                batch_size=result.batch_size,
                task=result.task_name,
                population=result.population_name,
                calibration_label=result.calibration_label,
                rounds=result.rounds,
                recovery_rate=result.recovery_rate,
                dismiss_weight=result.dismiss_weight,
                heed_weight=result.heed_weight,
                rng_mode=result.rng_mode,
                chunk_workers=result.chunk_workers,
                variant_index=run.variant_index,
            )
        )
    return rows


def execute(
    experiment: Experiment, backend: Optional["ExecutionBackend"] = None
) -> ResultSet:
    """Run an experiment's variants through an execution backend.

    The function form of :meth:`Experiment.run`.
    """
    from .backends import resolve_backend  # deferred: backends imports this module

    return resolve_backend(backend).execute(experiment)
