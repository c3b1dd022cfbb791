"""Batch draws and the simulation-side adapters of the traversal kernel.

The stage traversal itself lives in :mod:`repro.core.pipeline`: one kernel
(:meth:`~repro.core.pipeline.PipelinePlan.walk_batch`) advances receivers
at any width.  This module owns the *simulation-side* pieces the kernel is
fed with:

* :class:`BatchReceivers` — a whole batch of sampled receivers behind the
  :class:`~repro.core.receiver.HumanReceiver` attribute tree, with numpy
  arrays in place of floats (the probability model in
  :mod:`repro.core.probabilities` is polymorphic over both),
* :class:`DrawBatch` / :func:`draw_batch_counter` /
  :func:`redraw_decisions_counter` — all randomness for one batch, drawn
  up front in the fixed layout of
  :func:`repro.core.pipeline.decision_columns` through any
  :class:`~repro.simulation.rng.DrawSource`: the counter streams, or the
  matrix replay adapter (the ``_counter`` suffix is historical), and
* :func:`evaluate_batch` / :func:`records_from_batch` — thin adapters that
  run the kernel over a draw batch and materialize per-receiver records.

The draw layout is shared with the engine's ``reference`` mode, which runs
the *same* kernel one row at a time (width 1) over row slices of the same
arrays (:meth:`DrawBatch.row`) — that is what makes the batch/reference
equivalence regression test exact rather than statistical.

The module holds no state between calls: the draws recycle memory only
through a :class:`~repro.simulation.rng.DrawBuffers` their caller passes
in (the engine passes its simulator's), and records are built straight
from a batch while its draws are still live.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..core import receiver as receiver_model
from ..core.pipeline import (
    BatchWalk,
    PipelinePlan,
    ReceiverTerms,
    decision_columns,
    walk_from_row,
)
from .metrics import ReceiverRecord
from .population import PopulationSpec, TraitSamples
from .rng import NOISE_STREAMS, SPOOF_STREAM, DrawBuffers, DrawSource

__all__ = [
    "BatchReceivers",
    "DrawBatch",
    "decision_columns",
    "draw_batch_counter",
    "redraw_decisions_counter",
    "evaluate_batch",
    "records_from_batch",
]


# ---------------------------------------------------------------------------
# Batch receiver view
#
# These tiny namespace classes mirror the attribute tree of HumanReceiver
# (personal_variables.knowledge..., intentions.attitudes..., capabilities...)
# with arrays in place of floats, and compute the derived scores through the
# shared formula functions in repro.core.receiver — so the scalar and batch
# paths cannot drift apart.
# ---------------------------------------------------------------------------


class _KnowledgeView:
    def __init__(self, traits: Dict[str, np.ndarray], trained: np.ndarray) -> None:
        self.security_knowledge = traits["security_knowledge"]
        self.domain_knowledge = traits["domain_knowledge"]
        self.computer_proficiency = traits["computer_proficiency"]
        self.prior_exposure = traits["prior_exposure"]
        self.has_received_training = trained

    @property
    def expertise(self) -> np.ndarray:
        return receiver_model.expertise_score(
            self.security_knowledge, self.domain_knowledge, self.computer_proficiency
        )


class _PersonalVariablesView:
    def __init__(self, knowledge: _KnowledgeView) -> None:
        self.knowledge = knowledge

    @property
    def expertise(self) -> np.ndarray:
        return self.knowledge.expertise


class _AttitudesView:
    def __init__(self, traits: Dict[str, np.ndarray]) -> None:
        self.trust = traits["trust"]
        self.perceived_relevance = traits["perceived_relevance"]
        self.risk_perception = traits["risk_perception"]
        self.self_efficacy = traits["self_efficacy"]
        self.response_efficacy = traits["response_efficacy"]
        self.perceived_time_cost = traits["perceived_time_cost"]
        self.annoyance = traits["annoyance"]

    @property
    def belief_score(self) -> np.ndarray:
        return receiver_model.belief_score(
            self.trust,
            self.perceived_relevance,
            self.risk_perception,
            self.self_efficacy,
            self.response_efficacy,
            self.perceived_time_cost,
            self.annoyance,
        )


class _MotivationView:
    def __init__(self, traits: Dict[str, np.ndarray]) -> None:
        self.conflicting_goals = traits["conflicting_goals"]
        self.primary_task_pressure = traits["primary_task_pressure"]
        self.perceived_consequences = traits["perceived_consequences"]
        self.incentives = traits["incentives"]
        self.disincentives = traits["disincentives"]
        self.convenience_cost = traits["convenience_cost"]

    @property
    def motivation_score(self) -> np.ndarray:
        return receiver_model.motivation_score(
            self.conflicting_goals,
            self.primary_task_pressure,
            self.perceived_consequences,
            self.incentives,
            self.disincentives,
            self.convenience_cost,
        )


class _IntentionsView:
    def __init__(self, attitudes: _AttitudesView, motivation: _MotivationView) -> None:
        self.attitudes = attitudes
        self.motivation = motivation

    @property
    def intention_score(self) -> np.ndarray:
        return receiver_model.intention_score(
            self.attitudes.belief_score, self.motivation.motivation_score
        )


class _CapabilitiesView:
    # Sampled populations always have the required software and device
    # (PopulationSpec does not model their absence), so the flags stay
    # population-wide scalars.
    has_required_software = True
    has_required_device = True

    def __init__(self, traits: Dict[str, np.ndarray]) -> None:
        self.knowledge_to_act = traits["knowledge_to_act"]
        self.cognitive_skill = traits["cognitive_skill"]
        self.physical_skill = traits["physical_skill"]
        self.memory_capacity = traits["memory_capacity"]

    @property
    def capability_score(self) -> np.ndarray:
        return receiver_model.capability_score(
            self.knowledge_to_act,
            self.cognitive_skill,
            self.physical_skill,
            self.memory_capacity,
            self.has_required_software,
            self.has_required_device,
        )


class BatchReceivers:
    """A whole batch of sampled receivers behind the HumanReceiver interface."""

    def __init__(self, samples: TraitSamples) -> None:
        self.samples = samples
        self.personal_variables = _PersonalVariablesView(
            _KnowledgeView(samples.traits, samples.trained)
        )
        self.intentions = _IntentionsView(
            _AttitudesView(samples.traits), _MotivationView(samples.traits)
        )
        self.capabilities = _CapabilitiesView(samples.traits)

    @property
    def count(self) -> int:
        return self.samples.count

    @property
    def expertise(self) -> np.ndarray:
        return self.personal_variables.expertise

    @property
    def intention_score(self) -> np.ndarray:
        return self.intentions.intention_score

    @property
    def capability_score(self) -> np.ndarray:
        return self.capabilities.capability_score


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DrawBatch:
    """All randomness for one batch, drawn up front in a fixed layout."""

    samples: TraitSamples
    spoof_uniforms: Optional[np.ndarray]
    noise: np.ndarray
    decisions: np.ndarray

    @property
    def count(self) -> int:
        return self.samples.count

    def row(self, index: int) -> "DrawBatch":
        """A width-1 view of one receiver's draws (same layout, same floats).

        The engine's reference mode interprets a chunk row by row through
        the shared traversal kernel; slicing (rather than copying scalars
        out) keeps every value bit-identical to what the full-width batch
        evaluation reads.
        """
        samples = self.samples
        sliced = TraitSamples(
            population_name=samples.population_name,
            traits={name: values[index : index + 1] for name, values in samples.traits.items()},
            ages=samples.ages[index : index + 1],
            trained=samples.trained[index : index + 1],
        )
        return DrawBatch(
            samples=sliced,
            spoof_uniforms=(
                None
                if self.spoof_uniforms is None
                else self.spoof_uniforms[index : index + 1]
            ),
            noise=self.noise[index : index + 1],
            decisions=self.decisions[index : index + 1, :],
        )


def draw_batch_counter(
    plan: PipelinePlan,
    population: PopulationSpec,
    count: int,
    draws: DrawSource,
    buffers: Optional[DrawBuffers] = None,
) -> DrawBatch:
    """Draw the traits and the round's encounter randomness for ``count`` receivers.

    ``draws`` is the chunk's round-0 cell of any
    :class:`~repro.simulation.rng.DrawSource`.  With
    :class:`~repro.simulation.rng.CounterDraws` every array is the prefix
    of a dedicated keyed stream, so any single value is recomputable in
    O(1) through the same cell; with
    :class:`~repro.simulation.rng.MatrixDraws` the calls below consume
    the sequential chunk stream in the historical matrix order.

    With ``buffers`` the trait block and the decision matrix recycle the
    memory of the previous same-shape draw from those buffers — several
    megabytes per chunk that would otherwise be page-faulted in afresh —
    so the batch is valid only until the next draw from them.  Values
    are identical either way.
    """
    samples = population.sample_traits(count, draws, buffers=buffers)
    return redraw_decisions_counter(plan, samples, draws, buffers=buffers)


def redraw_decisions_counter(
    plan: PipelinePlan,
    samples: TraitSamples,
    draws: DrawSource,
    buffers: Optional[DrawBuffers] = None,
) -> DrawBatch:
    """Fresh encounter randomness (spoof, noise, decisions) over fixed traits.

    The multi-round engine keeps one trait draw per chunk and calls this
    once per later round with that round's cell of any
    :class:`~repro.simulation.rng.DrawSource`: the *same* receivers face a
    new hazard encounter with fresh stochastic conditions.  Counter cells
    give spoof uniforms, perception noise and each decision column their
    own streams, so a round's encounter randomness never depends on
    earlier rounds or on sibling chunks.  ``buffers`` works as in
    :func:`draw_batch_counter`.
    """
    count = samples.count
    if plan.has_communication:
        spoof_uniforms = draws.uniforms(SPOOF_STREAM, count)
        noise = draws.clipped_normals(
            NOISE_STREAMS, 0.0, plan.user_noise_std, -0.2, 0.2, count,
            buffers=buffers,
        )
    else:
        spoof_uniforms, noise = None, np.zeros(count)
    decisions = draws.decision_matrix(count, len(decision_columns(plan)), buffers)
    return DrawBatch(
        samples=samples, spoof_uniforms=spoof_uniforms, noise=noise, decisions=decisions
    )


# ---------------------------------------------------------------------------
# Kernel adapters
# ---------------------------------------------------------------------------


def evaluate_batch(
    plan: PipelinePlan,
    draws: DrawBatch,
    exposures: Optional[np.ndarray] = None,
    trace=False,
    terms: Optional[ReceiverTerms] = None,
) -> BatchWalk:
    """Advance every receiver in the batch through the pipeline at once.

    A thin adapter over the shared traversal kernel
    (:meth:`~repro.core.pipeline.PipelinePlan.walk_batch`): builds the
    batch receiver view, derives the spoof mask from the pre-drawn
    uniforms, and hands both to the kernel.  ``exposures`` is the optional
    per-receiver habituation exposure array the multi-round engine carries
    between rounds (``None`` keeps the communication's static single-shot
    reading); ``trace=True`` additionally collects the per-receiver
    :class:`~repro.core.stages.StageTraceBatch` funnel arrays,
    ``trace="counts"`` only their column totals (the engine's fused
    streaming-funnel path).  ``terms`` are the batch's round-invariant
    stage terms (:meth:`~repro.core.pipeline.PipelinePlan.receiver_terms`),
    which the multi-round engine builds once per chunk.
    """
    view = BatchReceivers(draws.samples)
    if not plan.has_communication:
        return plan.walk_batch(view, draws.decisions, trace=trace)
    spoofed = draws.spoof_uniforms < plan.spoof_probability
    return plan.walk_batch(
        view,
        draws.decisions,
        spoofed=spoofed,
        noise=draws.noise,
        exposures=exposures,
        trace=trace,
        terms=terms,
    )


# ---------------------------------------------------------------------------
# Record materialization
# ---------------------------------------------------------------------------


def records_from_batch(
    outcomes: BatchWalk,
    draws: DrawBatch,
    start_index: int = 0,
    round_index: int = 0,
) -> List[ReceiverRecord]:
    """Materialize per-receiver records (with stage traces) from a batch.

    Each row goes through the shared scalar materializer
    (:func:`repro.core.pipeline.walk_from_row`), so the records carry the
    identical traces, notes and flags the width-1 kernel walk produces.
    ``round_index`` tags each record with the hazard-encounter round it
    belongs to (0 for single-shot runs).
    """
    population_name = draws.samples.population_name
    records: List[ReceiverRecord] = []
    for row in range(outcomes.count):
        index = start_index + row
        walk = walk_from_row(outcomes, row)
        records.append(
            ReceiverRecord(
                index=index,
                receiver_name=f"{population_name}-{index}",
                trace=walk.trace,
                outcome=walk.outcome,
                protected=walk.protected,
                failed_stage=walk.failed_stage,
                intention_failed=walk.intention_failed,
                capability_failed=walk.capability_failed,
                spoofed=walk.spoofed,
                note=walk.note,
                round_index=round_index,
            )
        )
    return records
