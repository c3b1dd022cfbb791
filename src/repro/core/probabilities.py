"""Shared stage-success probability model.

The framework itself is qualitative, but both the analysis layer (which
flags components whose expected success is low) and the simulation
substrate (which realizes stochastic outcomes for populations of simulated
receivers) need a common quantitative reading of the factors Table 1
enumerates.  This module provides that reading: for every pipeline stage it
computes a success probability from the attributes of the communication,
the impediment environment, the receiver, and the task design.

The functional forms are deliberately simple (bounded linear combinations
of the Table-1 factors) and every constant is documented.  They are not
fitted models of human behavior; they are the minimal quantitative
commitment needed to turn the paper's qualitative guidance — "the more
passive the communication, the more likely environmental stimuli will
prevent users from noticing it", "over time users may ignore security
indicators that they observe frequently" — into something executable.
Calibrations for the case-study experiments (which anchor specific
communications to the effect sizes reported in the cited user studies)
live in :mod:`repro.studies` and :mod:`repro.simulation.calibration`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .behavior import TaskDesign
from .communication import Communication, CommunicationType
from .exceptions import ModelError
from .impediments import Environment
from .receiver import FloatOrArray, HumanReceiver
from .stages import STAGE_ORDER, Stage
from .task import HumanSecurityTask

__all__ = [
    "clamp_probability",
    "habituation_factor",
    "delivery_intact_probability",
    "attention_switch_probability",
    "attention_switch_score",
    "attention_switch_from_score",
    "attention_maintenance_probability",
    "comprehension_probability",
    "knowledge_acquisition_probability",
    "knowledge_retention_probability",
    "knowledge_transfer_probability",
    "intention_probability",
    "capability_probability",
    "behavior_success_probability",
    "applicable_stages",
    "stage_probabilities",
    "end_to_end_success_probability",
]

# Floor and ceiling applied to every stage probability.  Humans are never
# perfectly reliable nor perfectly unreliable; keeping probabilities off the
# boundaries also keeps downstream likelihood bands meaningful.
_FLOOR = 0.02
_CEILING = 0.98


def clamp_probability(value: FloatOrArray) -> FloatOrArray:
    """Clamp a raw score into the [_FLOOR, _CEILING] probability band.

    Accepts a float or a numpy array; every stage-probability function in
    this module is polymorphic the same way, so the batch simulation engine
    can evaluate the model over a whole population in one call.
    """
    return np.minimum(_CEILING, np.maximum(_FLOOR, value))


def habituation_factor(exposures: FloatOrArray, activeness: float) -> FloatOrArray:
    """Attention multiplier after repeated exposures (Section 2.3.1).

    Habituation decays attention exponentially with the number of prior
    exposures.  Active, task-blocking communications habituate more slowly
    than passive indicators because they force at least a dismissal action
    each time.  The factor is bounded below so that even heavily habituated
    users occasionally notice a communication.

    ``exposures`` is polymorphic like every stage function in this module:
    a float (fractional counts arise from recovery during exposure-free
    gaps, see :mod:`repro.simulation.habituation`) or a numpy array of
    per-receiver counts, as the multi-round engine carries between hazard
    encounters.  Both branches evaluate through ``np.exp`` so a scalar
    count and the same count inside an array yield bit-identical factors
    (the batch/reference equivalence regression relies on this).
    """
    if not 0.0 <= activeness <= 1.0:
        raise ModelError("activeness must be in [0, 1]")
    # Passive indicators lose ~8% of remaining attention per exposure,
    # blocking dialogs ~2.5%.
    decay_rate = 0.08 - 0.055 * activeness
    if np.ndim(exposures) == 0:
        if exposures < 0:
            raise ModelError("exposures must be non-negative")
        return max(0.25, float(np.exp(-decay_rate * float(exposures))))
    counts = np.asarray(exposures, dtype=float)
    if np.any(counts < 0):
        raise ModelError("exposures must be non-negative")
    return np.maximum(0.25, np.exp(-decay_rate * counts))


def delivery_intact_probability(environment: Environment) -> float:
    """Probability the communication survives interference intact."""
    return (1.0 - environment.block_probability) * (1.0 - 0.5 * environment.degrade_probability)


def attention_switch_probability(
    communication: Communication,
    environment: Environment,
    receiver: HumanReceiver,
    exposures: Optional[FloatOrArray] = None,
) -> float:
    """Probability the receiver notices the communication at all.

    Drivers (Table 1, attention-switch row): environmental stimuli,
    interference, format/conspicuity, length, delivery channel, and
    habituation.  Activeness dominates: a blocking dialog is nearly always
    noticed, a subtle chrome indicator frequently is not (user studies find
    some users have *never* noticed the SSL lock icon).

    ``exposures`` overrides the communication's baked-in
    ``habituation_exposures`` with a dynamic count — a fractional float or
    a per-receiver array, as the multi-round engine threads between hazard
    encounters.  ``None`` keeps the static baked-in count.
    """
    score = attention_switch_score(communication, environment, receiver)
    return attention_switch_from_score(communication, environment, score, exposures)


def attention_switch_score(
    communication: Communication,
    environment: Environment,
    receiver: HumanReceiver,
) -> FloatOrArray:
    """The attention-switch score before habituation and delivery loss.

    The exposure-independent half of :func:`attention_switch_probability`:
    nothing in it changes between the hazard encounters of a multi-round
    run, so the engine computes it once per chunk and finishes it per
    round with :func:`attention_switch_from_score`.
    """
    base = 0.15 + 0.8 * communication.activeness
    salience_bonus = 0.15 * communication.conspicuity
    distraction_penalty = (
        0.45 * environment.distraction_level * (1.0 - communication.activeness)
    )
    exposure_bonus = 0.1 * receiver.personal_variables.knowledge.prior_exposure * (
        1.0 - communication.activeness
    )
    return base + salience_bonus + exposure_bonus - distraction_penalty


def attention_switch_from_score(
    communication: Communication,
    environment: Environment,
    score: FloatOrArray,
    exposures: Optional[FloatOrArray] = None,
) -> FloatOrArray:
    """Finish an :func:`attention_switch_score` into a probability.

    Applies the habituation factor for ``exposures`` (``None`` keeps the
    communication's baked-in count) and the delivery loss, then clamps.
    """
    if exposures is None:
        exposures = communication.habituation_exposures
    raw = score * habituation_factor(exposures, communication.activeness)
    raw = raw * delivery_intact_probability(environment)
    return clamp_probability(raw)


def attention_maintenance_probability(
    communication: Communication,
    environment: Environment,
    receiver: HumanReceiver,
) -> float:
    """Probability the receiver attends long enough to process the message."""
    # Long messages lose readers; 30 words is the comfortable baseline.
    length_penalty = min(0.4, 0.004 * max(0, communication.length_words - 30))
    base = 0.75 + 0.15 * communication.activeness - length_penalty
    base -= 0.25 * environment.distraction_level * (1.0 - communication.activeness)
    base += 0.1 * receiver.intentions.attitudes.perceived_relevance
    return clamp_probability(base)


def comprehension_probability(
    communication: Communication,
    receiver: HumanReceiver,
) -> float:
    """Probability the receiver understands what the communication means.

    Drivers: clarity (symbols, vocabulary, conceptual complexity) and the
    receiver's knowledge.  Resemblance to frequently-encountered,
    non-critical communications hurts: Egelman et al. found users who
    mistook the IE phishing warning for a 404 page.
    """
    expertise = receiver.personal_variables.expertise
    base = 0.25 + 0.5 * communication.clarity + 0.3 * expertise
    if communication.resembles_low_risk_communications:
        base -= 0.2
    domain = receiver.personal_variables.knowledge.domain_knowledge
    # Receivers with no mental model of the hazard misinterpret even clear
    # warnings (the "transient problem with the web site" misreading).
    base = base - 0.25 * np.maximum(0.0, 0.4 - domain)
    return clamp_probability(base)


def knowledge_acquisition_probability(
    communication: Communication,
    receiver: HumanReceiver,
) -> float:
    """Probability the receiver knows what to *do* in response."""
    base = 0.3 + 0.3 * receiver.personal_variables.expertise
    if communication.includes_instructions:
        base = base + 0.35
    if communication.explains_risk:
        base = base + 0.1
    # ``has_received_training`` may be a per-receiver boolean array.
    base = base + 0.15 * receiver.personal_variables.knowledge.has_received_training
    return clamp_probability(base)


def knowledge_retention_probability(
    communication: Communication,
    receiver: HumanReceiver,
) -> float:
    """Probability the receiver remembers the communication when needed.

    Only meaningful for training and policy communications — warnings that
    appear at hazard time do not need to be remembered.
    """
    knowledge = receiver.personal_variables.knowledge
    base = 0.35 + 0.3 * knowledge.prior_exposure + 0.2 * knowledge.expertise
    base = base + 0.1 * receiver.capabilities.memory_capacity
    base = base + 0.1 * knowledge.has_received_training
    return clamp_probability(base)


def knowledge_transfer_probability(
    communication: Communication,
    receiver: HumanReceiver,
) -> float:
    """Probability the receiver recognizes new situations where the
    communication applies and figures out how to apply it there."""
    knowledge = receiver.personal_variables.knowledge
    base = 0.3 + 0.35 * knowledge.expertise + 0.2 * knowledge.domain_knowledge
    base = base + 0.15 * knowledge.has_received_training
    return clamp_probability(base)


def intention_probability(
    communication: Communication,
    receiver: HumanReceiver,
) -> float:
    """Probability the receiver decides the communication is worth acting on.

    Combines the receiver's attitudes/beliefs and motivation with
    communication-side factors that modulate them: a history of false
    positives erodes trust, and the mere availability of an override lowers
    perceived risk ("since it gave me the option of still proceeding to the
    website, I figured it couldn't be that bad").
    """
    base = receiver.intentions.intention_score
    base -= 0.35 * communication.false_positive_rate
    if communication.allows_override and communication.comm_type is CommunicationType.WARNING:
        base -= 0.07
    if communication.explains_risk:
        base += 0.08
    if communication.resembles_low_risk_communications:
        base -= 0.1
    return clamp_probability(base)


def capability_probability(
    task: HumanSecurityTask,
    receiver: HumanReceiver,
) -> float:
    """Probability the receiver is capable of carrying out the action.

    ``receiver`` may be a :class:`~repro.core.receiver.HumanReceiver` or a
    batch receiver view whose capability dimensions are arrays; the shortfall
    arithmetic mirrors :meth:`HumanSecurityTask.capability_gap` elementwise.
    """
    requirements = task.capability_requirements
    capabilities = receiver.capabilities
    shortfall_total = 0.0
    has_gap = False
    for dimension in ("knowledge_to_act", "cognitive_skill", "physical_skill", "memory_capacity"):
        shortfall = getattr(requirements, dimension) - getattr(capabilities, dimension)
        gap = shortfall > 1e-9
        shortfall_total = shortfall_total + np.where(gap, shortfall, 0.0)
        has_gap = has_gap | gap
    # The software/device flags are population-wide constants, so they gate
    # every receiver in a batch at once (``| True`` keeps the array shape).
    if requirements.has_required_software and not capabilities.has_required_software:
        shortfall_total = shortfall_total + 1.0
        has_gap = has_gap | True
    if requirements.has_required_device and not capabilities.has_required_device:
        shortfall_total = shortfall_total + 1.0
        has_gap = has_gap | True
    probability = np.where(
        has_gap,
        clamp_probability(0.85 - 1.2 * shortfall_total),
        clamp_probability(0.6 + 0.4 * receiver.capability_score),
    )
    if np.ndim(probability) == 0:
        return float(probability)
    return probability


def behavior_success_probability(
    design: TaskDesign,
    receiver: HumanReceiver,
) -> float:
    """Probability the intended action is executed correctly (Section 2.4)."""
    base = 0.95
    base -= 0.5 * design.gulf_of_execution
    base -= 0.4 * design.lapse_exposure
    base -= 0.4 * design.slip_exposure
    base -= 0.1 * design.gulf_of_evaluation
    base += 0.1 * (receiver.capability_score - 0.5)
    return clamp_probability(base)


def applicable_stages(communication: Optional[Communication]) -> Dict[Stage, bool]:
    """Which pipeline stages apply for a given communication type.

    Warnings, notices and status indicators are presented at hazard time,
    so knowledge retention and transfer are "not applicable" (exactly the
    judgment the anti-phishing case study records for its Application
    row).  Training and policies are delivered ahead of time, so retention
    and transfer are central.
    """
    stages = {stage: True for stage in STAGE_ORDER}
    if communication is None:
        return {stage: False for stage in STAGE_ORDER}
    if not communication.comm_type.requires_knowledge_transfer:
        stages[Stage.KNOWLEDGE_RETENTION] = False
        stages[Stage.KNOWLEDGE_TRANSFER] = False
    return stages


def stage_probabilities(
    task: HumanSecurityTask,
    receiver: Optional[HumanReceiver] = None,
) -> Dict[Stage, float]:
    """Success probability for every *applicable* stage of a task.

    Stages that do not apply for the task's communication type are omitted
    from the result.  A task with no communication at all yields an empty
    mapping — the caller is expected to flag the missing communication as
    the root cause rather than reason about stages.
    """
    from .pipeline import build_pipeline

    return build_pipeline(task).stage_probabilities(receiver or task.primary_receiver)


def end_to_end_success_probability(
    task: HumanSecurityTask,
    receiver: Optional[HumanReceiver] = None,
) -> float:
    """Probability the whole pipeline — including intention and capability
    gates — succeeds for one receiver.

    The pipeline multiplies the applicable stage probabilities with the
    intention and capability gate probabilities.  A task with no
    communication is given a small residual success probability to reflect
    experts who initiate security actions on their own.
    """
    from .pipeline import build_pipeline

    return build_pipeline(task).success_probability(receiver or task.primary_receiver)
