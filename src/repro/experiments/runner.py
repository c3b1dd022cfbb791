"""Experiment work units: resolved variant plans and their execution.

Each variant of an :class:`~repro.experiments.design.Experiment` becomes
one picklable :class:`VariantRun` work unit; :func:`run_variant` re-binds
the scenario from the registry inside the executing process (the registry
is populated by import side effects, so worker processes see the same
scenarios) and returns the result rows.  Every unit carries its own
derived seed and its variant's declaration index, so any execution
strategy — inline, a process pool, or one shard per host (see
:mod:`repro.experiments.backends`) — produces identical rows in a
reconstructible order, and knows the identity of each row before it
runs (:meth:`VariantRun.expected_rows`).  :func:`execute` is the
function form of :meth:`~repro.experiments.design.Experiment.run`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from ..simulation.engine import SimulationConfig
from ..simulation.metrics import SimulationResult
from ..systems.scenario import get_scenario, variant_hash
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


#: The engine settings a unit falls back to where its parameters are unset.
_ENGINE_DEFAULTS = SimulationConfig()


@dataclasses.dataclass(frozen=True)
class VariantRun:
    """One variant's fully-resolved, picklable execution plan.

    ``rounds``, ``rng_mode`` and ``batch_size`` are the engine settings
    :func:`run_variant` runs: the unit's parameters (the experiment's
    ``batch_size``) over the engine defaults, resolved at plan time
    without binding the scenario.
    """

    experiment: str
    scenario: str
    label: str
    params: Mapping[str, Any]
    variant_hash: str
    seed: int
    n_receivers: int
    mode: str
    paths: Tuple[str, ...]
    task: Optional[str]
    variant_index: int
    rounds: int
    rng_mode: str
    batch_size: int

    def expected_rows(self) -> Dict[Tuple[str, str, str], Dict[str, Any]]:
        """Each row's ``row_key`` and the identity fields it will record, in
        emission order (:class:`ResultRow` names; the task, which needs
        the scenario bound, is left out).
        """
        rows: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
        if "analyze" in self.paths:
            rows[self.label, self.variant_hash, "analytic"] = {"mode": "analytic"}
        if "simulate" in self.paths:
            rows[self.label, self.variant_hash, self.mode] = dict(
                mode=self.mode, seed=self.seed, n_receivers=self.n_receivers,
                batch_size=self.batch_size, rounds=self.rounds, rng_mode=self.rng_mode,
            )
        return rows


def plan_runs(experiment: Experiment) -> List[VariantRun]:
    """Resolve every variant of an experiment into a work unit."""
    return [
        VariantRun(
            experiment=experiment.name,
            scenario=variant.scenario,
            label=variant.resolved_label(),
            params=dict(variant.params),
            variant_hash=variant_hash(variant.scenario, variant.params),
            seed=experiment.variant_seed(index),
            n_receivers=experiment.n_receivers,
            mode=experiment.mode,
            paths=experiment.paths,
            task=experiment.task,
            variant_index=index,
            # Validated rounds and rng_mode are never falsy; Experiment checks the size.
            rounds=variant.params.get("rounds") or _ENGINE_DEFAULTS.rounds,
            rng_mode=variant.params.get("rng_mode") or _ENGINE_DEFAULTS.rng_mode,
            batch_size=experiment.batch_size or _ENGINE_DEFAULTS.batch_size,
        )
        for index, variant in enumerate(experiment.variants)
    ]


def resolved_task_name(run: VariantRun) -> str:
    """The task name the rows of a work unit record (binds the variant)."""
    return get_scenario(run.scenario).bind(**dict(run.params)).task(run.task).name


def _simulation_metrics(result: SimulationResult) -> Dict[str, float]:
    """The flat metric dictionary recorded for a simulated row.

    Multi-round runs additionally record each round's headline rates under
    ``round<k>:`` keys, so a result row carries the full decay curve.
    Runs with tracing enabled carry the per-stage funnel under
    ``funnel:<checkpoint>:`` keys (survival and conditional-failure rates
    per pipeline checkpoint).  Wall-clock telemetry rides along under
    ``perf:`` keys (elapsed seconds, receiver-round throughput, chunks
    processed, and each engine phase's seconds as
    ``perf:phase:<phase>_s``) — machine-dependent, so provenance rather
    than identity.
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
    for phase, seconds in result.phase_seconds.items():
        metrics[f"perf:phase:{phase}_s"] = seconds
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
        analysis = variant.analyze()
        task_name = variant.task(run.task).name
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
        result = variant.simulate(
            run.n_receivers, seed=run.seed, task=run.task, mode=run.mode,
            rounds=run.rounds, rng_mode=run.rng_mode, batch_size=run.batch_size,
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
