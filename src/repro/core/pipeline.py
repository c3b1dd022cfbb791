"""The shared stage-pipeline abstraction.

Both readings of the framework — the *analytic* walk in
:mod:`repro.core.analysis` (expected stage probabilities, end-to-end
success) and the *stochastic* walk in :mod:`repro.simulation.engine`
(realized outcomes for sampled receivers) — traverse the same pipeline:

    communication delivery → communication processing → application →
    intention gate → capability gate → behavior

This module is the single owner of that traversal.  A
:class:`PipelinePlan` is built once per (task, calibration, environment)
and answers every pipeline question both layers ask:

* which stages apply for the task's communication type (and which are
  deliberately skipped),
* the success probability of every stage and gate for a receiver — where
  ``receiver`` may be a scalar :class:`~repro.core.receiver.HumanReceiver`
  *or* a batch receiver view whose traits are numpy arrays, because the
  underlying model in :mod:`repro.core.probabilities` is polymorphic,
* the outcome semantics of a failure at each point (blocking
  communications fail safe, passive ones leave the receiver exposed,
  spoofed indicators defeat the receiver outright), and
* **one traversal kernel** (:meth:`PipelinePlan.walk_batch`) that
  realizes receiver passes at any width from a pre-drawn uniform matrix
  laid out by :func:`decision_columns`: checkpoint ``k`` of every
  receiver is decided by ``decisions[:, k] < p``.  The simulator's batch
  mode runs it over whole chunks and its reference mode over width-1 row
  slices of the same matrix, so both share stage ordering, gate
  sequencing and failure semantics by construction.  The kernel emits
  the per-stage outcome data behind the funnel metrics as a vectorized
  :class:`~repro.core.stages.StageTraceBatch` or its counts, and any lane
  reads back as a scalar :class:`~repro.core.stages.StageTrace` via
  :func:`walk_from_row`.

The calibration argument is duck-typed (anything that provides
``apply_stage`` / ``apply_intention`` / ``apply_capability`` and the
``override_given_misunderstanding`` / ``user_noise_std`` constants, such as
:class:`repro.simulation.calibration.StageCalibration`) so the core package
does not depend on the simulation package.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from . import probabilities
from .behavior import OUTCOME_ORDER, BehaviorOutcome, outcome_code
from .communication import ActivenessLevel, Communication
from .exceptions import ModelError
from .impediments import Environment
from .stages import (
    GATE_CHECKPOINTS,
    STAGE_ORDER,
    FunnelCounts,
    Stage,
    StageOutcome,
    StageTrace,
    StageTraceBatch,
)
from .receiver import FloatOrArray
from .task import HumanSecurityTask

#: The kernel is polymorphic in its receiver argument: a scalar
#: :class:`~repro.core.receiver.HumanReceiver` or a batch receiver view
#: (any object exposing the same attributes as arrays).  Structural
#: typing over that family is deliberate — the alias documents intent
#: without coupling core to the simulation package.
ReceiverLike = Any

__all__ = [
    "FailureSemantics",
    "PRE_BEHAVIOR_STAGES",
    "failure_semantics",
    "failure_outcome",
    "failure_needs_override",
    "decision_columns",
    "BatchWalk",
    "ReceiverTerms",
    "PipelineWalk",
    "walk_from_row",
    "PipelinePlan",
    "build_pipeline",
]

_HAZARD_AVOIDED = np.array([outcome.hazard_avoided for outcome in OUTCOME_ORDER])
_SUCCESS_CODE = outcome_code(BehaviorOutcome.SUCCESS)
_FAILURE_CODE = outcome_code(BehaviorOutcome.FAILURE)
_FAILED_SAFE_CODE = outcome_code(BehaviorOutcome.FAILED_SAFE)
_NO_ACTION_CODE = outcome_code(BehaviorOutcome.NO_ACTION)

#: Pipeline stages evaluated before the behavior stage, in order.
PRE_BEHAVIOR_STAGES: Tuple[Stage, ...] = STAGE_ORDER[:-1]

#: Default constants used when no calibration is supplied (mirror the
#: neutral :class:`repro.simulation.calibration.StageCalibration`).
_DEFAULT_OVERRIDE_GIVEN_MISUNDERSTANDING = 0.3


class FailureSemantics(enum.Enum):
    """How a failure at a pipeline stage translates into an outcome.

    The semantics mirror the case studies (see the module docstring of
    :mod:`repro.simulation.engine`):

    * ``SAFE_IF_BLOCKING`` — attention-switch failures.  A blocking
      communication cannot really go unnoticed, so the hazard stays
      blocked; with a passive communication the receiver simply never
      acts.
    * ``OVERRIDE_OR_SAFE`` — failures while processing the communication
      (attention maintenance, comprehension, knowledge acquisition).
      With a blocking communication the confused receiver mostly fails
      safely (Egelman et al.: they retried the link and never reached the
      site) unless they find the override anyway; with a passive one any
      processing failure leaves them unprotected.
    * ``ALWAYS_FAILURE`` — retention/transfer failures (training and
      policy communications): the knowledge is simply not applied when
      the hazard arises, so the receiver is unprotected.
    """

    SAFE_IF_BLOCKING = "safe_if_blocking"
    OVERRIDE_OR_SAFE = "override_or_safe"
    ALWAYS_FAILURE = "always_failure"


_FAILURE_SEMANTICS: Dict[Stage, FailureSemantics] = {
    Stage.ATTENTION_SWITCH: FailureSemantics.SAFE_IF_BLOCKING,
    Stage.ATTENTION_MAINTENANCE: FailureSemantics.OVERRIDE_OR_SAFE,
    Stage.COMPREHENSION: FailureSemantics.OVERRIDE_OR_SAFE,
    Stage.KNOWLEDGE_ACQUISITION: FailureSemantics.OVERRIDE_OR_SAFE,
    Stage.KNOWLEDGE_RETENTION: FailureSemantics.ALWAYS_FAILURE,
    Stage.KNOWLEDGE_TRANSFER: FailureSemantics.ALWAYS_FAILURE,
}


def failure_semantics(stage: Stage) -> FailureSemantics:
    """The failure semantics of a pre-behavior pipeline stage."""
    if stage not in _FAILURE_SEMANTICS:
        raise ModelError(f"{stage} has no pre-behavior failure semantics")
    return _FAILURE_SEMANTICS[stage]


def failure_needs_override(stage: Stage, default_safe: bool) -> bool:
    """Whether resolving a failure at ``stage`` requires an override draw."""
    return default_safe and _FAILURE_SEMANTICS[stage] is FailureSemantics.OVERRIDE_OR_SAFE


def failure_outcome(stage: Stage, default_safe: bool, overrode: bool = False) -> BehaviorOutcome:
    """Translate a failed pipeline stage into a behavior outcome.

    ``overrode`` is only consulted for the override-or-safe stages of a
    blocking communication (see :func:`failure_needs_override`).
    """
    semantics = failure_semantics(stage)
    if semantics is FailureSemantics.SAFE_IF_BLOCKING:
        return BehaviorOutcome.FAILED_SAFE if default_safe else BehaviorOutcome.NO_ACTION
    if semantics is FailureSemantics.OVERRIDE_OR_SAFE and default_safe:
        return BehaviorOutcome.FAILURE if overrode else BehaviorOutcome.FAILED_SAFE
    return BehaviorOutcome.FAILURE


@dataclasses.dataclass
class PipelineWalk:
    """Result of realizing one receiver's pass through the pipeline."""

    outcome: BehaviorOutcome
    protected: bool
    trace: StageTrace
    failed_stage: Optional[Stage] = None
    intention_failed: bool = False
    capability_failed: bool = False
    spoofed: bool = False
    note: str = ""


def decision_columns(plan: "PipelinePlan") -> Dict[str, int]:
    """Column index of every decision in a pre-drawn uniform matrix.

    The shared draw layout both engine modes consume (one row per
    receiver): one column per applicable pre-behavior stage in pipeline
    order, then the override draw, the intention gate, the capability
    gate, and the behavior stage.  A task with no communication has a
    single column — the self-initiated-action draw.
    """
    if not plan.has_communication:
        return {"self_initiated": 0}
    columns = {f"stage:{stage.value}": index for index, stage in enumerate(plan.stages)}
    offset = len(plan.stages)
    columns["override"] = offset
    columns["intention"] = offset + 1
    columns["capability"] = offset + 2
    columns["behavior"] = offset + 3
    return columns


@dataclasses.dataclass(frozen=True)
class BatchWalk:
    """Realized traversal of one batch as a struct of arrays.

    The traversal kernel's result at any width (reference mode runs the
    width-1 case).  ``outcome_codes`` indexes
    :data:`~repro.core.behavior.OUTCOME_ORDER`; ``failed_stage_index``
    holds the :data:`~repro.core.stages.STAGE_ORDER` index of the first
    failed stage, or ``-1``.  ``stage_probabilities`` and
    ``stage_success`` (per applicable pre-behavior stage, in plan order)
    are retained so per-receiver records can be materialized without
    recomputing the model; columns past a receiver's first failure are
    unevaluated and must not be read.  ``trace`` carries the per-receiver
    funnel checkpoint arrays when the caller asked for them;
    ``funnel_counts`` the counts-only reduction when the caller asked for
    that instead (``trace="counts"`` — the engine's streaming-funnel hot
    path, which never needs the per-receiver matrices).
    """

    plan: "PipelinePlan"
    outcome_codes: np.ndarray
    protected: np.ndarray
    spoofed: np.ndarray
    intention_failed: np.ndarray
    capability_failed: np.ndarray
    failed_stage_index: np.ndarray
    attention_evaluated: np.ndarray
    attention_succeeded: np.ndarray
    stage_probabilities: Optional[np.ndarray] = None
    stage_success: Optional[np.ndarray] = None
    behavior_probability: Optional[np.ndarray] = None
    trace: Optional[StageTraceBatch] = None
    funnel_counts: Optional[FunnelCounts] = None

    @property
    def count(self) -> int:
        return int(self.outcome_codes.shape[0])


@dataclasses.dataclass(frozen=True)
class ReceiverTerms:
    """The round-invariant stage terms of one batch of receivers.

    Between the hazard encounters of a multi-round run only two kernel
    inputs change: the exposure count behind the attention-switch
    habituation factor, and fresh perception noise.  Everything else the
    kernel evaluates per receiver is held here, built once by
    :meth:`PipelinePlan.receiver_terms`:

    * ``attention_score`` — the attention-switch score before the
      habituation factor
      (:func:`~repro.core.probabilities.attention_switch_score`);
    * ``stage_raw`` — the raw, noise-free probability of every other
      applicable pre-behavior stage;
    * ``intention_raw`` — the raw intention probability;
    * ``capability`` / ``behavior`` — the calibrated capability-gate and
      behavior probabilities, which take no noise.
    """

    attention_score: FloatOrArray
    stage_raw: Dict[Stage, FloatOrArray]
    intention_raw: FloatOrArray
    capability: FloatOrArray
    behavior: FloatOrArray


def walk_from_row(outcomes: BatchWalk, row: int) -> PipelineWalk:
    """Materialize one lane of a :class:`BatchWalk` as a :class:`PipelineWalk`.

    The single source of the scalar trace, note strings, and failure
    flags: the simulation layer builds every per-receiver record through
    here, in both execution modes.
    """
    plan = outcomes.plan
    outcome = OUTCOME_ORDER[int(outcomes.outcome_codes[row])]
    trace = StageTrace()
    failed_stage: Optional[Stage] = None
    note = ""

    if not plan.has_communication:
        note = (
            "self-initiated protective action (no communication)"
            if outcome is BehaviorOutcome.SUCCESS
            else "no communication; no protective action taken"
        )
    elif outcomes.spoofed[row]:
        note = "indicator spoofed by attacker"
    else:
        for stage in plan.skipped:
            trace.skip(stage)
        for column, stage in enumerate(plan.stages):
            succeeded = bool(outcomes.stage_success[row, column])
            trace.record(
                StageOutcome(
                    stage=stage,
                    succeeded=succeeded,
                    probability=float(outcomes.stage_probabilities[row, column]),
                )
            )
            if not succeeded:
                failed_stage = stage
                note = f"failed at {stage.value}"
                break
        else:
            if outcomes.intention_failed[row]:
                note = "decided not to comply"
            elif outcomes.capability_failed[row]:
                note = "not capable of completing the action"
            else:
                behavior_ok = outcome is BehaviorOutcome.SUCCESS
                trace.record(
                    StageOutcome(
                        stage=Stage.BEHAVIOR,
                        succeeded=behavior_ok,
                        probability=float(outcomes.behavior_probability[row]),
                    )
                )
                if not behavior_ok:
                    failed_stage = Stage.BEHAVIOR
                    note = "behavior-stage error (slip, lapse, or execution gulf)"

    return PipelineWalk(
        outcome=outcome,
        protected=bool(outcomes.protected[row]),
        trace=trace,
        failed_stage=failed_stage,
        intention_failed=bool(outcomes.intention_failed[row]),
        capability_failed=bool(outcomes.capability_failed[row]),
        spoofed=bool(outcomes.spoofed[row]),
        note=note,
    )


@dataclasses.dataclass(frozen=True)
class PipelinePlan:
    """The pipeline for one task: applicable stages, gates, and semantics."""

    task: HumanSecurityTask
    environment: Environment
    stages: Tuple[Stage, ...]
    skipped: Tuple[Stage, ...]
    default_safe: bool
    spoof_probability: float
    calibration: Optional[object] = None

    # -- structure ---------------------------------------------------------------

    @property
    def communication(self) -> Optional[Communication]:
        return self.task.communication

    @property
    def has_communication(self) -> bool:
        return self.task.communication is not None

    @property
    def user_noise_std(self) -> float:
        if self.calibration is None:
            return 0.0
        return self.calibration.user_noise_std

    @property
    def override_given_misunderstanding(self) -> float:
        if self.calibration is None:
            return _DEFAULT_OVERRIDE_GIVEN_MISUNDERSTANDING
        return self.calibration.override_given_misunderstanding

    # -- probabilities -----------------------------------------------------------
    #
    # Every method below is polymorphic in ``receiver`` (HumanReceiver or a
    # batch receiver view) and in ``noise`` (float or array): the returned
    # probability has the broadcast shape of its inputs.

    def raw_stage_probability(
        self,
        stage: Stage,
        receiver: ReceiverLike,
        exposures: Optional[FloatOrArray] = None,
    ) -> FloatOrArray:
        """Uncalibrated, noise-free success probability of one stage.

        ``exposures`` (float or per-receiver array) overrides the
        communication's static habituation count for the attention-switch
        stage; other stages ignore it.  The multi-round engine threads the
        evolving per-receiver exposure state through here.
        """
        communication = self.task.communication
        if communication is None:
            raise ModelError("task has no communication; stages do not apply")
        if stage is Stage.ATTENTION_SWITCH:
            return probabilities.attention_switch_probability(
                communication, self.environment, receiver, exposures=exposures
            )
        if stage is Stage.ATTENTION_MAINTENANCE:
            return probabilities.attention_maintenance_probability(
                communication, self.environment, receiver
            )
        if stage is Stage.COMPREHENSION:
            return probabilities.comprehension_probability(communication, receiver)
        if stage is Stage.KNOWLEDGE_ACQUISITION:
            return probabilities.knowledge_acquisition_probability(communication, receiver)
        if stage is Stage.KNOWLEDGE_RETENTION:
            return probabilities.knowledge_retention_probability(communication, receiver)
        if stage is Stage.KNOWLEDGE_TRANSFER:
            return probabilities.knowledge_transfer_probability(communication, receiver)
        if stage is Stage.BEHAVIOR:
            return probabilities.behavior_success_probability(self.task.task_design, receiver)
        raise ModelError(f"unknown stage {stage!r}")

    def stage_probability(
        self,
        stage: Stage,
        receiver: ReceiverLike,
        noise: FloatOrArray = 0.0,
        exposures: Optional[FloatOrArray] = None,
    ) -> FloatOrArray:
        """Calibrated success probability of one stage, with per-user noise.

        The behavior stage models slips and lapses rather than perception,
        so the per-user perception noise is not applied to it (mirroring
        the original engine).  ``exposures`` is the optional dynamic
        habituation count (see :meth:`raw_stage_probability`).
        """
        # The raw array is passed on, not held in a local, so it is freed
        # as soon as the clamped copy replaces it; a longer-lived array
        # measurably slows the single-round engine.
        return self._calibrated_stage(
            stage, self.raw_stage_probability(stage, receiver, exposures=exposures), noise
        )

    def _calibrated_stage(
        self, stage: Stage, raw: FloatOrArray, noise: FloatOrArray
    ) -> FloatOrArray:
        """Noise, clamp and calibration over one raw stage probability."""
        if stage is not Stage.BEHAVIOR:
            raw = probabilities.clamp_probability(raw + noise)
        if self.calibration is None:
            return raw
        return self.calibration.apply_stage(stage, raw)

    def intention_probability(
        self, receiver: ReceiverLike, noise: FloatOrArray = 0.0
    ) -> FloatOrArray:
        """Calibrated probability the receiver decides to comply."""
        communication = self.task.communication
        if communication is None:
            raise ModelError("task has no communication; the intention gate does not apply")
        return self._calibrated_intention(
            probabilities.clamp_probability(
                probabilities.intention_probability(communication, receiver) + noise
            )
        )

    def _calibrated_intention(self, clamped: FloatOrArray) -> FloatOrArray:
        """Calibration over the clamped, noisy intention probability."""
        if self.calibration is None:
            return clamped
        return self.calibration.apply_intention(clamped)

    def capability_probability(self, receiver: ReceiverLike) -> FloatOrArray:
        """Calibrated probability the receiver can perform the action."""
        raw = probabilities.capability_probability(self.task, receiver)
        if self.calibration is None:
            return raw
        return self.calibration.apply_capability(raw)

    def behavior_probability(self, receiver: ReceiverLike) -> FloatOrArray:
        """Calibrated probability the action is executed correctly."""
        return self.stage_probability(Stage.BEHAVIOR, receiver)

    def self_initiated_probability(self, receiver: ReceiverLike) -> FloatOrArray:
        """With no communication, only self-motivated experts act."""
        return probabilities.clamp_probability(0.1 * receiver.personal_variables.expertise)

    def receiver_terms(self, receivers: ReceiverLike) -> ReceiverTerms:
        """The round-invariant stage terms of ``receivers``, computed once.

        Hand the result to :meth:`walk_batch` (``terms=``) for every hazard
        encounter of the same receivers: the kernel then does only the
        per-round work — the habituation factor for the current exposures,
        ``clamp(raw + noise)`` and the calibration.  Each term is computed
        by the same operations, in the same order, as when the kernel
        evaluates it per round, so the probabilities are bit-identical.
        """
        communication = self.task.communication
        if communication is None:
            raise ModelError("task has no communication; stage terms do not apply")
        return ReceiverTerms(
            attention_score=probabilities.attention_switch_score(
                communication, self.environment, receivers
            ),
            stage_raw={
                stage: self.raw_stage_probability(stage, receivers)
                for stage in self.stages
                if stage is not Stage.ATTENTION_SWITCH
            },
            intention_raw=probabilities.intention_probability(communication, receivers),
            capability=self.capability_probability(receivers),
            behavior=self.behavior_probability(receivers),
        )

    def stage_probabilities(self, receiver: ReceiverLike) -> Dict[Stage, float]:
        """Success probability for every applicable stage (incl. behavior).

        With no calibration this reproduces the analytic reading used by
        :func:`repro.core.analysis.analyze_task`; a task without a
        communication yields an empty mapping.
        """
        if not self.has_communication:
            return {}
        result = {stage: self.stage_probability(stage, receiver) for stage in self.stages}
        result[Stage.BEHAVIOR] = self.behavior_probability(receiver)
        return result

    def success_probability(self, receiver: ReceiverLike) -> FloatOrArray:
        """End-to-end success probability including both gates."""
        if not self.has_communication:
            return self.self_initiated_probability(receiver)
        probability = 1.0
        for stage_probability in self.stage_probabilities(receiver).values():
            probability = probability * stage_probability
        probability = probability * self.intention_probability(receiver)
        probability = probability * self.capability_probability(receiver)
        # The individual factors are already floored, so the product is
        # strictly positive; only the ceiling is applied to avoid masking
        # real differences between long pipelines with low success.
        ceiling = np.minimum(probabilities._CEILING, probability)
        return float(ceiling) if np.ndim(ceiling) == 0 else ceiling

    # -- traversal kernel --------------------------------------------------------

    def _slot_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Plan-constant per-slot lookup tables, built once per plan.

        ``(base_codes, needs_override, slot_stage_index)`` — one entry per
        applicable pre-behavior stage plus a sentinel slot (never read for
        a failing receiver; it just keeps the fancy-indexing in bounds).
        Cached on the (frozen) plan because reference mode runs the kernel
        once per receiver per round.
        """
        cached = self.__dict__.get("_slot_table_cache")
        if cached is None:
            base_codes = np.array(
                [
                    outcome_code(failure_outcome(stage, self.default_safe, overrode=False))
                    for stage in self.stages
                ]
                + [_SUCCESS_CODE]
            )
            needs_override = np.array(
                [failure_needs_override(stage, self.default_safe) for stage in self.stages]
                + [False]
            )
            slot_stage_index = np.array([stage.index for stage in self.stages] + [-1])
            cached = (base_codes, needs_override, slot_stage_index)
            object.__setattr__(self, "_slot_table_cache", cached)
        return cached

    def _decision_columns(self) -> Dict[str, int]:
        """Cached :func:`decision_columns` of this plan."""
        cached = self.__dict__.get("_decision_column_cache")
        if cached is None:
            cached = decision_columns(self)
            object.__setattr__(self, "_decision_column_cache", cached)
        return cached

    def _traverse(
        self,
        receivers: ReceiverLike,
        decisions: np.ndarray,
        spoofed: np.ndarray,
        noise: FloatOrArray,
        exposures: Optional[FloatOrArray] = None,
        collect_trace: bool = False,
        collect_counts: bool = False,
        terms: Optional[ReceiverTerms] = None,
    ) -> BatchWalk:
        """The single stage-traversal kernel, at any width.

        ``receivers`` is a batch receiver view (the probability model is
        polymorphic over floats and arrays); ``decisions`` the pre-drawn
        uniform matrix, whose :func:`decision_columns` column decides each
        checkpoint for every lane at once (values of lanes that never
        reach a checkpoint are compared and discarded, never read);
        ``spoofed`` is the per-lane attacker mask.  The stage loop exits as
        soon as no lane is still alive — a receiver who never notices a
        warning never evaluates comprehension, and at width N the kernel
        skips model calls no lane would read.  ``collect_trace`` emits the full
        per-receiver :class:`StageTraceBatch`; ``collect_counts`` the
        counts-only :class:`FunnelCounts` reduction, folded from masks the
        traversal already holds (no per-receiver checkpoint matrices).
        ``terms`` are the receivers' precomputed round-invariant stage
        terms (:meth:`receiver_terms`); without them each term is computed
        when the traversal first needs it.
        """
        count = int(decisions.shape[0])
        columns = self._decision_columns()
        false = np.zeros(count, dtype=bool)

        communication = self.task.communication
        if communication is None:
            ones = np.ones(count, dtype=bool)
            acted = (
                decisions[:, columns["self_initiated"]]
                < self.self_initiated_probability(receivers)
            )
            trace = None
            if collect_trace:
                trace = StageTraceBatch(
                    labels=("self_initiated",),
                    stages=(),
                    skipped=(),
                    entered=ones[:, None].copy(),
                    passed=acted[:, None].copy(),
                    spoofed=false.copy(),
                )
            funnel_counts = None
            if collect_counts:
                funnel_counts = FunnelCounts(
                    labels=("self_initiated",),
                    entered=(count,),
                    passed=(int(np.count_nonzero(acted)),),
                    n=count,
                    spoofed=0,
                )
            return BatchWalk(
                plan=self,
                outcome_codes=np.where(acted, _SUCCESS_CODE, _NO_ACTION_CODE).astype(np.int64),
                protected=acted.copy(),
                spoofed=false,
                intention_failed=false,
                capability_failed=false,
                failed_stage_index=np.full(count, -1),
                attention_evaluated=false,
                attention_succeeded=false,
                trace=trace,
                funnel_counts=funnel_counts,
            )

        stage_count = len(self.stages)
        live = ~spoofed

        # -- pipeline stages: one model call per stage covers every lane, and
        # the loop stops once every lane is spoofed or has already failed.
        stage_probabilities = np.zeros((count, stage_count))
        stage_success = np.zeros((count, stage_count), dtype=bool)
        first_failed_slot = np.full(count, stage_count)  # sentinel: no failure
        alive = live.copy()
        for column, stage in enumerate(self.stages):
            if not alive.any():
                break
            if terms is None:
                probability = self.stage_probability(
                    stage, receivers, noise, exposures=exposures
                )
            elif stage is Stage.ATTENTION_SWITCH:
                probability = self._calibrated_stage(
                    stage,
                    probabilities.attention_switch_from_score(
                        communication, self.environment, terms.attention_score, exposures
                    ),
                    noise,
                )
            else:
                probability = self._calibrated_stage(stage, terms.stage_raw[stage], noise)
            ok = decisions[:, columns[f"stage:{stage.value}"]] < probability
            stage_probabilities[:, column] = probability
            stage_success[:, column] = ok
            newly_failed = alive & ~ok
            first_failed_slot[newly_failed] = column
            alive &= ok

        base_codes, needs_override, slot_stage_index = self._slot_tables()

        stage_fail = live & (first_failed_slot < stage_count)
        override_mask = stage_fail & needs_override[first_failed_slot]
        overrode = (
            decisions[:, columns["override"]] < self.override_given_misunderstanding
            if override_mask.any()
            else false
        )
        fail_codes = np.where(
            needs_override[first_failed_slot] & overrode,
            _FAILURE_CODE,
            base_codes[first_failed_slot],
        )

        # -- gates and behavior, masked to the lanes that reached them --------
        passed_stages = live & (first_failed_slot == stage_count)
        # Probabilities are passed inline, never held in locals, so each
        # array is freed once its decision is drawn.
        intention_ok = (
            decisions[:, columns["intention"]]
            < (
                self.intention_probability(receivers, noise)
                if terms is None
                else self._calibrated_intention(
                    probabilities.clamp_probability(terms.intention_raw + noise)
                )
            )
            if passed_stages.any()
            else false
        )
        intention_failed = passed_stages & ~intention_ok
        capability_mask = passed_stages & intention_ok
        capability_ok = (
            decisions[:, columns["capability"]]
            < (self.capability_probability(receivers) if terms is None else terms.capability)
            if capability_mask.any()
            else false
        )
        capability_failed = capability_mask & ~capability_ok
        behavior_mask = capability_mask & capability_ok
        if behavior_mask.any():
            behavior_probability = np.broadcast_to(
                np.asarray(
                    self.behavior_probability(receivers) if terms is None else terms.behavior,
                    dtype=float,
                ),
                (count,),
            )
            behavior_ok = decisions[:, columns["behavior"]] < behavior_probability
        else:
            behavior_probability = np.zeros(count)
            behavior_ok = false
        behavior_failed = behavior_mask & ~behavior_ok
        succeeded = behavior_mask & behavior_ok

        gate_fail_code = _FAILED_SAFE_CODE if self.default_safe else _FAILURE_CODE

        outcome_codes = np.empty(count, dtype=np.int64)
        outcome_codes[spoofed] = _FAILURE_CODE
        outcome_codes[stage_fail] = fail_codes[stage_fail]
        outcome_codes[intention_failed] = _FAILURE_CODE
        outcome_codes[capability_failed] = gate_fail_code
        outcome_codes[behavior_failed] = gate_fail_code
        outcome_codes[succeeded] = _SUCCESS_CODE

        failed_stage_index = np.full(count, -1)
        failed_stage_index[stage_fail] = slot_stage_index[first_failed_slot][stage_fail]
        failed_stage_index[behavior_failed] = Stage.BEHAVIOR.index

        if Stage.ATTENTION_SWITCH in self.stages:
            attention_column = self.stages.index(Stage.ATTENTION_SWITCH)
            attention_evaluated = live.copy()
            attention_succeeded = live & stage_success[:, attention_column]
        else:  # pragma: no cover - every communication evaluates attention
            attention_evaluated = false
            attention_succeeded = false

        trace = None
        if collect_trace:
            labels = tuple(stage.value for stage in self.stages) + GATE_CHECKPOINTS
            entered = np.zeros((count, len(labels)), dtype=bool)
            passed = np.zeros((count, len(labels)), dtype=bool)
            for column in range(stage_count):
                entered[:, column] = live & (first_failed_slot >= column)
                passed[:, column] = live & (first_failed_slot > column)
            entered[:, stage_count] = passed_stages
            passed[:, stage_count] = capability_mask  # passed_stages & intention_ok
            entered[:, stage_count + 1] = capability_mask
            passed[:, stage_count + 1] = behavior_mask
            entered[:, stage_count + 2] = behavior_mask
            passed[:, stage_count + 2] = succeeded
            trace = StageTraceBatch(
                labels=labels,
                stages=self.stages,
                skipped=self.skipped,
                entered=entered,
                passed=passed,
                spoofed=spoofed.copy(),
            )

        funnel_counts = None
        if collect_counts:
            # The fused funnel: stage columns reduce to "live minus the
            # failures before me" (one bincount over failing lanes), gate
            # columns to the mask counts the traversal already derived.
            # Identical integers to StageTraceBatch.counts(), by the same
            # first_failed_slot/mask definitions.
            labels = tuple(stage.value for stage in self.stages) + GATE_CHECKPOINTS
            fails = np.bincount(
                first_failed_slot[stage_fail], minlength=stage_count
            )
            entered_counts: List[int] = []
            passed_counts: List[int] = []
            remaining = int(np.count_nonzero(live))
            for column in range(stage_count):
                entered_counts.append(remaining)
                remaining -= int(fails[column])
                passed_counts.append(remaining)
            capability_entered = int(np.count_nonzero(capability_mask))
            behavior_entered = int(np.count_nonzero(behavior_mask))
            entered_counts += [remaining, capability_entered, behavior_entered]
            passed_counts += [
                capability_entered,
                behavior_entered,
                int(np.count_nonzero(succeeded)),
            ]
            funnel_counts = FunnelCounts(
                labels=labels,
                entered=tuple(entered_counts),
                passed=tuple(passed_counts),
                n=count,
                spoofed=int(np.count_nonzero(spoofed)),
            )

        return BatchWalk(
            plan=self,
            outcome_codes=outcome_codes,
            protected=_HAZARD_AVOIDED[outcome_codes],
            spoofed=spoofed,
            intention_failed=intention_failed,
            capability_failed=capability_failed,
            failed_stage_index=failed_stage_index,
            attention_evaluated=attention_evaluated,
            attention_succeeded=attention_succeeded,
            stage_probabilities=stage_probabilities,
            stage_success=stage_success,
            behavior_probability=behavior_probability,
            trace=trace,
            funnel_counts=funnel_counts,
        )

    def walk_batch(
        self,
        receivers: ReceiverLike,
        decisions: np.ndarray,
        spoofed: Optional[np.ndarray] = None,
        noise: FloatOrArray = 0.0,
        exposures: Optional[FloatOrArray] = None,
        trace: Union[bool, str] = False,
        terms: Optional[ReceiverTerms] = None,
    ) -> BatchWalk:
        """Advance a whole batch through the pipeline at once (the array walk).

        ``decisions`` is a pre-drawn uniform matrix laid out by
        :func:`decision_columns`; ``spoofed`` the per-receiver attacker
        mask (``None`` — nobody spoofed); ``noise`` the per-receiver
        perception noise; ``exposures`` the optional dynamic habituation
        counts for the attention-switch stage.  ``trace=True`` additionally
        collects the per-receiver funnel checkpoint arrays;
        ``trace="counts"`` only their column totals (the fused
        :class:`~repro.core.stages.FunnelCounts` path — what the engine's
        streaming funnel consumes, at near trace-off cost).  ``terms`` are
        the receivers' round-invariant stage terms from
        :meth:`receiver_terms`, for callers that walk the same receivers
        through several hazard encounters.
        """
        if spoofed is None:
            spoofed = np.zeros(int(decisions.shape[0]), dtype=bool)
        return self._traverse(
            receivers,
            decisions,
            np.asarray(spoofed, dtype=bool),
            noise,
            exposures=exposures,
            collect_trace=trace is True,
            collect_counts=trace == "counts",
            terms=terms,
        )


def build_pipeline(
    task: HumanSecurityTask,
    calibration: Optional[object] = None,
    environment: Optional[Environment] = None,
) -> PipelinePlan:
    """Build the pipeline plan for one task.

    Parameters
    ----------
    task:
        The human security task.
    calibration:
        Optional stage calibration (duck-typed; see module docstring).
        ``None`` yields the uncalibrated analytic reading.
    environment:
        Optional override of the task's impediment environment (the
        simulation engine passes the attacker-augmented environment here).
    """
    environment = environment if environment is not None else task.environment
    communication = task.communication
    applicability = probabilities.applicable_stages(communication)
    if communication is None:
        stages: Tuple[Stage, ...] = ()
        skipped: Tuple[Stage, ...] = ()
        default_safe = False
        spoof = 0.0
    else:
        stages = tuple(stage for stage in PRE_BEHAVIOR_STAGES if applicability[stage])
        skipped = tuple(stage for stage in PRE_BEHAVIOR_STAGES if not applicability[stage])
        default_safe = communication.activeness_level is ActivenessLevel.BLOCKING
        spoof = environment.spoof_probability
    return PipelinePlan(
        task=task,
        environment=environment,
        stages=stages,
        skipped=skipped,
        default_safe=default_safe,
        spoof_probability=spoof,
        calibration=calibration,
    )
