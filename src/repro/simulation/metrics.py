"""Simulation results and streaming aggregate metrics.

A :class:`SimulationTally` accumulates the aggregates the benchmarks
report — protection rate, heed rate, outcome distribution, and the
per-stage failure breakdown that mirrors the way the paper's case studies
walk through the framework components — either record by record or a whole
vectorized batch at a time.  Because the batch engine folds each chunk of
receivers into the tally and discards the arrays, memory stays O(batch)
rather than O(population) for large runs.

A :class:`SimulationResult` carries the tally (and, for small runs, the
per-receiver :class:`ReceiverRecord` list with full stage traces).
:func:`comparison_table` renders several results side by side (e.g.
Firefox vs. IE-active vs. IE-passive vs. no warning).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.behavior import OUTCOME_ORDER, BehaviorOutcome, outcome_code
from ..core.exceptions import SimulationError
from ..core.stages import STAGE_ORDER, FunnelCounts, Stage, StageTrace, StageTraceBatch

__all__ = [
    "OUTCOME_ORDER",
    "outcome_code",
    "ReceiverRecord",
    "SimulationTally",
    "RoundTally",
    "FunnelTally",
    "SimulationResult",
    "ENGINE_PHASES",
    "comparison_table",
    "render_comparison_markdown",
]


@dataclasses.dataclass(frozen=True)
class ReceiverRecord:
    """Outcome of one simulated receiver's encounter with the task.

    ``round_index`` identifies which hazard-encounter round of a
    multi-round run the record belongs to; single-shot runs leave it 0.
    """

    index: int
    receiver_name: str
    trace: StageTrace
    outcome: BehaviorOutcome
    protected: bool
    failed_stage: Optional[Stage] = None
    intention_failed: bool = False
    capability_failed: bool = False
    spoofed: bool = False
    note: str = ""
    round_index: int = 0


@dataclasses.dataclass
class SimulationTally:
    """Streaming aggregate of receiver outcomes.

    Fed either one :class:`ReceiverRecord` at a time (:meth:`add_record`,
    used by the scalar reference walk) or a whole vectorized batch at once
    (:meth:`add_batch`).  Holding only counters, it is the piece that keeps
    population-scale simulations O(batch) in memory.
    """

    n: int = 0
    protected: int = 0
    outcome_counts_by_code: List[int] = dataclasses.field(
        default_factory=lambda: [0] * len(OUTCOME_ORDER)
    )
    stage_failure_by_index: List[int] = dataclasses.field(
        default_factory=lambda: [0] * len(STAGE_ORDER)
    )
    intention_failures: int = 0
    capability_failures: int = 0
    spoofed: int = 0
    attention_evaluated: int = 0
    attention_succeeded: int = 0

    def add_record(self, record: ReceiverRecord) -> None:
        """Fold one per-receiver record into the tally."""
        self.n += 1
        if record.protected:
            self.protected += 1
        self.outcome_counts_by_code[outcome_code(record.outcome)] += 1
        if record.failed_stage is not None:
            self.stage_failure_by_index[record.failed_stage.index] += 1
        if record.intention_failed:
            self.intention_failures += 1
        if record.capability_failed:
            self.capability_failures += 1
        if record.spoofed:
            self.spoofed += 1
        attention = record.trace.outcome_for(Stage.ATTENTION_SWITCH)
        if attention is not None:
            self.attention_evaluated += 1
            if attention.succeeded:
                self.attention_succeeded += 1

    def add_batch(self, outcomes) -> None:
        """Fold a :class:`repro.core.pipeline.BatchWalk` into the tally."""
        count = outcomes.count
        self.n += count
        self.protected += int(np.count_nonzero(outcomes.protected))
        outcome_bins = np.bincount(outcomes.outcome_codes, minlength=len(OUTCOME_ORDER))
        for code, increment in enumerate(outcome_bins):
            self.outcome_counts_by_code[code] += int(increment)
        failed = outcomes.failed_stage_index[outcomes.failed_stage_index >= 0]
        stage_bins = np.bincount(failed, minlength=len(STAGE_ORDER))
        for index, increment in enumerate(stage_bins):
            self.stage_failure_by_index[index] += int(increment)
        self.intention_failures += int(np.count_nonzero(outcomes.intention_failed))
        self.capability_failures += int(np.count_nonzero(outcomes.capability_failed))
        self.spoofed += int(np.count_nonzero(outcomes.spoofed))
        self.attention_evaluated += int(np.count_nonzero(outcomes.attention_evaluated))
        self.attention_succeeded += int(np.count_nonzero(outcomes.attention_succeeded))

    def merge(self, other: "SimulationTally") -> None:
        """Fold another tally into this one."""
        self.n += other.n
        self.protected += other.protected
        for code, value in enumerate(other.outcome_counts_by_code):
            self.outcome_counts_by_code[code] += value
        for index, value in enumerate(other.stage_failure_by_index):
            self.stage_failure_by_index[index] += value
        self.intention_failures += other.intention_failures
        self.capability_failures += other.capability_failures
        self.spoofed += other.spoofed
        self.attention_evaluated += other.attention_evaluated
        self.attention_succeeded += other.attention_succeeded

    # -- views -----------------------------------------------------------------

    def outcome_counts(self) -> Dict[BehaviorOutcome, int]:
        return {
            outcome: self.outcome_counts_by_code[code]
            for code, outcome in enumerate(OUTCOME_ORDER)
        }

    def stage_failure_counts(self) -> Dict[Stage, int]:
        return {
            STAGE_ORDER[index]: count
            for index, count in enumerate(self.stage_failure_by_index)
            if count > 0
        }

    # -- rates -----------------------------------------------------------------
    #
    # The same headline rates SimulationResult exposes, computed directly on
    # the tally so per-round tallies of a multi-round run can be compared
    # without wrapping each in a result object.

    def _fraction(self, count: int) -> float:
        if self.n == 0:
            return 0.0
        return count / self.n

    def protection_rate(self) -> float:
        """Fraction of tallied encounters where the hazard was avoided."""
        return self._fraction(self.protected)

    def heed_rate(self) -> float:
        """Fraction of tallied encounters completing the desired action."""
        return self._fraction(self.outcome_counts_by_code[outcome_code(BehaviorOutcome.SUCCESS)])

    def notice_rate(self) -> float:
        """Fraction of evaluated attention-switch stages that succeeded."""
        if self.attention_evaluated == 0:
            return 0.0
        return self.attention_succeeded / self.attention_evaluated

    def intention_failure_rate(self) -> float:
        return self._fraction(self.intention_failures)

    def capability_failure_rate(self) -> float:
        return self._fraction(self.capability_failures)

    def summary(self) -> Dict[str, float]:
        """Headline rates as a flat dictionary (one row of a round series)."""
        return {
            "n": float(self.n),
            "protection_rate": self.protection_rate(),
            "heed_rate": self.heed_rate(),
            "notice_rate": self.notice_rate(),
            "intention_failure_rate": self.intention_failure_rate(),
            "capability_failure_rate": self.capability_failure_rate(),
        }


@dataclasses.dataclass
class RoundTally(SimulationTally):
    """Streaming tally of one hazard-encounter round of a multi-round run.

    The multi-round engine folds every chunk's round-``round_index``
    outcomes into one of these (alongside the aggregate
    :class:`SimulationTally` over all rounds), so per-round decay curves —
    the habituation signature Section 2.3.1 predicts — are available
    without keeping per-receiver records.
    """

    round_index: int = 0

    def summary(self) -> Dict[str, float]:
        row = {"round": float(self.round_index)}
        row.update(super().summary())
        return row


@dataclasses.dataclass
class FunnelTally:
    """Streaming per-stage funnel aggregate derived from traversal traces.

    Folds the column sums of :class:`~repro.core.stages.StageTraceBatch`
    arrays chunk by chunk — ``entered[k]`` / ``passed[k]`` encounters per
    funnel checkpoint (each applicable pre-behavior stage in pipeline
    order, then the intention gate, the capability gate, and the behavior
    stage) — and discards the arrays, so per-stage funnel analytics stay
    O(batch) in memory for population-scale runs.

    All rates are per tallied *encounter* (receiver-round): ``n`` counts
    every encounter folded in, spoofed ones included, matching the
    denominators of :class:`SimulationTally`.
    """

    labels: Tuple[str, ...] = ()
    entered: List[int] = dataclasses.field(default_factory=list)
    passed: List[int] = dataclasses.field(default_factory=list)
    n: int = 0
    spoofed: int = 0

    def add_trace(self, trace: StageTraceBatch) -> None:
        """Fold one batch's trace arrays into the tally."""
        self.add_counts(trace.counts())

    def add_counts(self, counts: FunnelCounts) -> None:
        """Fold one batch's counts-only funnel reduction into the tally.

        The engine's hot path: the traversal kernel computes the column
        totals in place (``trace="counts"``), so no per-receiver
        checkpoint matrices exist to reduce here.  Folding a
        :class:`~repro.core.stages.StageTraceBatch` through
        :meth:`add_trace` produces identical integers.
        """
        if not self.labels:
            self.labels = tuple(counts.labels)
            self.entered = [0] * len(self.labels)
            self.passed = [0] * len(self.labels)
        elif self.labels != tuple(counts.labels):
            raise SimulationError(
                f"trace checkpoints {counts.labels} do not match the tally's "
                f"{self.labels}; funnels aggregate one pipeline shape"
            )
        self.n += counts.n
        self.spoofed += counts.spoofed
        for column in range(len(self.labels)):
            self.entered[column] += counts.entered[column]
            self.passed[column] += counts.passed[column]

    def merge(self, other: "FunnelTally") -> None:
        """Fold another funnel tally into this one."""
        if other.n == 0:
            return
        if not self.labels:
            self.labels = other.labels
            self.entered = [0] * len(self.labels)
            self.passed = [0] * len(self.labels)
        elif self.labels != other.labels:
            raise SimulationError("cannot merge funnels with different checkpoints")
        self.n += other.n
        self.spoofed += other.spoofed
        for column in range(len(self.labels)):
            self.entered[column] += other.entered[column]
            self.passed[column] += other.passed[column]

    # -- views -------------------------------------------------------------------

    def _column(self, label: str) -> int:
        if label not in self.labels:
            raise SimulationError(
                f"unknown checkpoint {label!r}; known: {list(self.labels)}"
            )
        return self.labels.index(label)

    def entry_rate(self, label: str) -> float:
        """Fraction of tallied encounters that reached one checkpoint."""
        if self.n == 0:
            return 0.0
        return self.entered[self._column(label)] / self.n

    def survival_rate(self, label: str) -> float:
        """Fraction of tallied encounters that cleared one checkpoint."""
        if self.n == 0:
            return 0.0
        return self.passed[self._column(label)] / self.n

    def conditional_failure_rate(self, label: str) -> float:
        """P(fail at checkpoint | reached it) — the paper's per-stage lens."""
        column = self._column(label)
        entered = self.entered[column]
        if entered == 0:
            return 0.0
        return (entered - self.passed[column]) / entered

    def survival(self) -> List[Dict[str, float]]:
        """One row per checkpoint: counts plus the three funnel rates."""
        rows: List[Dict[str, float]] = []
        for label in self.labels:
            rows.append(
                {
                    "checkpoint": label,  # type: ignore[dict-item]
                    "entered": float(self.entered[self._column(label)]),
                    "passed": float(self.passed[self._column(label)]),
                    "entry_rate": self.entry_rate(label),
                    "survival_rate": self.survival_rate(label),
                    "conditional_failure_rate": self.conditional_failure_rate(label),
                }
            )
        return rows

    def summary(self) -> Dict[str, float]:
        """Flat ``funnel:<checkpoint>:<rate>`` metrics (for result rows)."""
        metrics: Dict[str, float] = {}
        for label in self.labels:
            metrics[f"funnel:{label}:survival_rate"] = self.survival_rate(label)
            metrics[f"funnel:{label}:conditional_failure"] = (
                self.conditional_failure_rate(label)
            )
        return metrics

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form (checkpoint counts plus headline totals)."""
        return {
            "labels": list(self.labels),
            "entered": list(self.entered),
            "passed": list(self.passed),
            "n": self.n,
            "spoofed": self.spoofed,
        }


#: The engine's phases, named after the layers of the perfbench ledger:
#: trait draws (with round 0's decisions), later rounds' encounter
#: redraws, kernel traversal, tally folds and exposure updates.
ENGINE_PHASES = (
    "simulation.traits",
    "simulation.encounter",
    "core.pipeline",
    "simulation.metrics",
    "simulation.habituation",
)


@dataclasses.dataclass
class SimulationResult:
    """Aggregated result of simulating one task over a population.

    The engine always populates ``tally``; ``records`` carries the full
    per-receiver traces only when the run is small enough (see
    ``SimulationConfig.record_limit``) or the scalar reference mode is
    used.  The engine's chunks return only integer tallies, so its
    ``records`` is a read-only sequence that regenerates them from the
    run's chunk coordinates on first read (bit-identical to building
    them during the run) and pickles as a plain list.  Results built by
    hand from records alone (as some tests do) derive their tally
    lazily.

    ``seed``, ``mode``, and ``batch_size`` together make the run exactly
    reproducible (both modes consume pre-drawn randomness chunked by
    ``batch_size``, so all three matter); the engine records them and the
    serialized form (:func:`repro.io.simulation_result_to_dict`) carries
    them as provenance.  ``mode``/``batch_size`` stay ``None`` on
    hand-built results.

    Multi-round runs (``rounds > 1``) advance the same receivers through
    repeated hazard encounters: ``tally`` then aggregates *all*
    receiver-round encounters, ``round_tallies`` holds the per-round
    :class:`RoundTally` series, and ``recovery_rate`` records the
    habituation recovery applied between rounds.

    **Denominator semantics** (pinned by ``tests/simulation/test_metrics``):
    every ``*_rate`` accessor and :meth:`stage_failure_fractions` divides
    by the *encounter* count ``tally.n`` (= ``receiver_rounds`` =
    ``n_receivers * rounds``), never by unique receivers — a receiver who
    fails at the attention stage in three of five rounds contributes three
    encounters to that stage's fraction.  ``n_receivers`` always reports
    unique receivers; :meth:`summary` carries both denominators
    (``n_receivers`` and ``receiver_rounds``) so consumers never have to
    reconstruct one from the other.

    Runs with tracing enabled (the engine default) additionally carry the
    per-stage funnel: ``funnel`` aggregates every encounter's checkpoint
    outcomes and ``round_funnels`` holds one :class:`FunnelTally` per
    round.  ``dismiss_weight`` / ``heed_weight`` record the
    outcome-coupled habituation weights the run used (both 1.0 — the
    delivery-only accrual rule — unless overridden).

    **Perf provenance** (engine-populated; defaults on hand-built
    results): ``rng_mode`` records which decision-stream source drew the
    run's randomness (``"matrix"`` / ``"counter"``; it is part of the
    reproducibility tuple — the two sources draw different streams),
    ``chunk_workers`` how many processes the engine spread the chunks
    across (1 unless it fanned them out over the local pool; the merged
    result is bit-identical either way, so it is telemetry, not
    identity), ``chunks`` how many chunks the run processed, and
    ``elapsed_seconds`` the wall-clock the call took — so every sweep
    doubles as throughput telemetry.  ``phase_seconds`` maps each of
    :data:`ENGINE_PHASES` to the wall time spent in it, summed over the
    chunks wherever they ran (so a fanned-out run's phases can add up to
    more than its ``elapsed_seconds``).
    """

    task_name: str
    population_name: str
    records: Sequence[ReceiverRecord] = dataclasses.field(default_factory=list)
    seed: int = 0
    calibration_label: str = "neutral"
    tally: Optional[SimulationTally] = None
    mode: Optional[str] = None
    batch_size: Optional[int] = None
    rounds: int = 1
    recovery_rate: float = 0.0
    round_tallies: List[RoundTally] = dataclasses.field(default_factory=list)
    funnel: Optional[FunnelTally] = None
    round_funnels: List[FunnelTally] = dataclasses.field(default_factory=list)
    dismiss_weight: float = 1.0
    heed_weight: float = 1.0
    rng_mode: Optional[str] = None
    chunk_workers: int = 1
    chunks: int = 0
    elapsed_seconds: Optional[float] = None
    phase_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.task_name:
            raise SimulationError("task_name must be non-empty")
        if self.rounds < 1:
            raise SimulationError("rounds must be >= 1")
        if not 0.0 <= self.recovery_rate <= 1.0:
            raise SimulationError("recovery_rate must be in [0, 1]")
        if self.dismiss_weight < 0.0 or self.heed_weight < 0.0:
            raise SimulationError("habituation weights must be non-negative")
        if self.chunk_workers < 1:
            raise SimulationError("chunk_workers must be >= 1")

    def _counts(self) -> SimulationTally:
        """The effective tally (explicit, or derived from the records)."""
        if self.tally is not None:
            return self.tally
        tally = SimulationTally()
        for record in self.records:
            tally.add_record(record)
        return tally

    # -- core rates ------------------------------------------------------------

    @property
    def n_receivers(self) -> int:
        """Unique receivers simulated (encounters divided by rounds)."""
        total = self.tally.n if self.tally is not None else len(self.records)
        if self.rounds > 1:
            return total // self.rounds
        return total

    @property
    def receiver_rounds(self) -> int:
        """Total hazard encounters simulated (``n_receivers * rounds``)."""
        if self.tally is not None:
            return self.tally.n
        return len(self.records)

    def throughput(self) -> Optional[float]:
        """Receiver-rounds per wall-clock second (``None`` without timing)."""
        if not self.elapsed_seconds:
            return None
        return self.receiver_rounds / self.elapsed_seconds

    def _fraction(self, count: int) -> float:
        total = self._counts().n
        if total == 0:
            return 0.0
        return count / total

    def protection_rate(self) -> float:
        """Fraction of receivers for whom the hazard was avoided."""
        return self._counts().protection_rate()

    def heed_rate(self) -> float:
        """Fraction of receivers who completed the desired action correctly."""
        return self._counts().heed_rate()

    def failure_rate(self) -> float:
        """Fraction of receivers for whom the hazard was *not* avoided."""
        return 1.0 - self.protection_rate()

    def notice_rate(self) -> float:
        """Fraction of receivers who passed the attention-switch stage."""
        return self._counts().notice_rate()

    # -- breakdowns ------------------------------------------------------------

    def outcome_counts(self) -> Dict[BehaviorOutcome, int]:
        return self._counts().outcome_counts()

    def stage_failure_counts(self) -> Dict[Stage, int]:
        """How many receivers failed first at each stage."""
        return self._counts().stage_failure_counts()

    def stage_failure_fractions(self) -> Dict[Stage, float]:
        return {
            stage: self._fraction(count)
            for stage, count in self.stage_failure_counts().items()
        }

    def intention_failure_rate(self) -> float:
        """Fraction of receivers who noticed/understood but chose not to comply."""
        return self._counts().intention_failure_rate()

    def capability_failure_rate(self) -> float:
        """Fraction of receivers who intended to comply but were not capable."""
        return self._counts().capability_failure_rate()

    def spoofed_rate(self) -> float:
        return self._fraction(self._counts().spoofed)

    def dominant_failure_stage(self) -> Optional[Stage]:
        """The stage where most first-failures occur, if any failures occurred."""
        counts = self.stage_failure_counts()
        if not counts:
            return None
        return max(counts, key=lambda stage: counts[stage])

    def summary(self) -> Dict[str, float]:
        """Headline metrics as a flat dictionary (used by the benchmarks).

        ``n_receivers`` counts unique receivers, ``receiver_rounds`` the
        encounters every rate divides by (equal for single-shot runs).
        """
        return {
            "n_receivers": float(self.n_receivers),
            "receiver_rounds": float(self.receiver_rounds),
            "protection_rate": self.protection_rate(),
            "heed_rate": self.heed_rate(),
            "notice_rate": self.notice_rate(),
            "intention_failure_rate": self.intention_failure_rate(),
            "capability_failure_rate": self.capability_failure_rate(),
        }

    # -- funnel views ------------------------------------------------------------

    def funnel_survival(self) -> List[Dict[str, float]]:
        """Per-checkpoint funnel rows (empty when tracing was disabled)."""
        if self.funnel is None:
            return []
        return self.funnel.survival()

    def conditional_failure_rate(self, checkpoint: str) -> float:
        """P(fail at checkpoint | reached it), from the aggregate funnel."""
        if self.funnel is None:
            raise SimulationError(
                "this run kept no funnel trace (trace=False); re-run with "
                "tracing enabled for conditional per-stage metrics"
            )
        return self.funnel.conditional_failure_rate(checkpoint)

    def round_funnel_metric(self, checkpoint: str, rate: str = "survival_rate") -> List[float]:
        """One funnel rate's per-round series (e.g. attention-switch survival)."""
        getters = {
            "entry_rate": FunnelTally.entry_rate,
            "survival_rate": FunnelTally.survival_rate,
            "conditional_failure_rate": FunnelTally.conditional_failure_rate,
        }
        if rate not in getters:
            raise SimulationError(
                f"unknown funnel rate {rate!r}; known: {sorted(getters)}"
            )
        return [getters[rate](funnel, checkpoint) for funnel in self.round_funnels]

    # -- per-round views ---------------------------------------------------------

    def round_summaries(self) -> List[Dict[str, float]]:
        """One headline-rate row per hazard-encounter round, in round order."""
        return [tally.summary() for tally in self.round_tallies]

    def round_metric(self, name: str) -> List[float]:
        """One metric's per-round series (e.g. the notice-rate decay curve)."""
        return [summary[name] for summary in self.round_summaries()]

    def records_for_round(self, round_index: int) -> List[ReceiverRecord]:
        """The materialized records of one round (empty beyond record_limit)."""
        return [record for record in self.records if record.round_index == round_index]


def comparison_table(
    results: Mapping[str, SimulationResult]
) -> List[Dict[str, float]]:
    """Build comparison rows (one per scenario) from named results."""
    rows: List[Dict[str, float]] = []
    for label, result in results.items():
        row: Dict[str, float] = {"scenario": label}  # type: ignore[dict-item]
        row.update(result.summary())
        rows.append(row)
    return rows


def render_comparison_markdown(results: Mapping[str, SimulationResult]) -> str:
    """Render named results as a Markdown comparison table."""
    lines = [
        "| Scenario | N | Protection | Heed | Notice | Intention failures | Capability failures |",
        "|---|---|---|---|---|---|---|",
    ]
    for label, result in results.items():
        lines.append(
            f"| {label} | {result.n_receivers} | "
            f"{result.protection_rate():.1%} | {result.heed_rate():.1%} | "
            f"{result.notice_rate():.1%} | {result.intention_failure_rate():.1%} | "
            f"{result.capability_failure_rate():.1%} |"
        )
    return "\n".join(lines)
