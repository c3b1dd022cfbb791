"""Human-receiver simulation substrate.

The paper grounds its case studies in human-subject studies we cannot
re-run; this package substitutes a calibrated Monte-Carlo simulation of
receiver populations processing security communications through the
framework pipeline (see DESIGN.md for the substitution rationale).

Layering (shared with the analytic path in :mod:`repro.core`):

* :mod:`repro.core.pipeline` owns the stage pipeline itself — applicable
  stages, gate ordering, failure-outcome semantics, and the single
  traversal kernel both execution modes drive over a pre-drawn decision
  matrix.
* :mod:`repro.simulation.rng` owns every generator: the
  :class:`~repro.simulation.rng.DrawSource` interface the draw functions
  call, the counter streams the engine draws from, and the matrix replay
  adapter that keeps archived rows reproducible.
* :mod:`repro.simulation.population` describes receiver populations and
  samples them as trait arrays from a draw source.
* :mod:`repro.simulation.batch` draws whole batches through one draw
  path and advances them through the pipeline vectorized (one model call
  per stage per batch).
* :mod:`repro.simulation.engine` orchestrates both execution modes —
  ``"batch"`` for population-scale runs and ``"reference"`` (the same
  kernel at width 1, each receiver in isolation) — over identical
  pre-drawn randomness, with per-stage funnel tallies and
  outcome-coupled habituation threaded through multi-round runs.
* :mod:`repro.simulation.metrics` accumulates streaming tallies so memory
  stays O(batch) rather than O(population).
* :mod:`repro.simulation.pool` owns the one persistent local process
  pool, which large multi-round runs and ``ProcessBackend`` sweeps fan
  out over.

Scenario-level entry points (population + calibration + system per case
study) live in :mod:`repro.systems.scenario`.
"""

from .attacker import AttackerModel, AttackVector, no_attacker, spoofing_attacker
from .batch import BatchReceivers, DrawBatch
from .calibration import StageCalibration
from .engine import SIMULATION_MODES, HumanLoopSimulator, SimulationConfig
from .habituation import (
    ExposurePoint,
    HabituationState,
    advance_exposures,
    initial_exposures,
    simulate_exposure_series,
)
from .metrics import (
    OUTCOME_ORDER,
    FunnelTally,
    ReceiverRecord,
    RoundTally,
    SimulationResult,
    SimulationTally,
    comparison_table,
    outcome_code,
    render_comparison_markdown,
)
from .population import (
    TRAIT_NAMES,
    PopulationSpec,
    TraitDistribution,
    TraitSamples,
    expert_population,
    general_web_population,
    organization_population,
)

__all__ = [
    "TraitDistribution",
    "TraitSamples",
    "TRAIT_NAMES",
    "PopulationSpec",
    "general_web_population",
    "organization_population",
    "expert_population",
    "StageCalibration",
    "AttackerModel",
    "AttackVector",
    "no_attacker",
    "spoofing_attacker",
    "HabituationState",
    "ExposurePoint",
    "simulate_exposure_series",
    "initial_exposures",
    "advance_exposures",
    "SimulationConfig",
    "HumanLoopSimulator",
    "SIMULATION_MODES",
    "BatchReceivers",
    "DrawBatch",
    "ReceiverRecord",
    "SimulationResult",
    "SimulationTally",
    "RoundTally",
    "FunnelTally",
    "OUTCOME_ORDER",
    "outcome_code",
    "comparison_table",
    "render_comparison_markdown",
]
