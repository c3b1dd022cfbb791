"""The human-receiver simulation engine.

The engine is the substrate that stands in for the human-subject studies
the paper cites: it draws receivers from a :class:`PopulationSpec` and
advances them through the shared framework pipeline (communication
delivery → communication processing → application → intention and
capability gates → behavior) owned by :mod:`repro.core.pipeline`, with
stage probabilities from :mod:`repro.core.probabilities` (optionally
rescaled by a :class:`~repro.simulation.calibration.StageCalibration`),
and records where each receiver failed and whether the hazard was
ultimately avoided.

Each chunk draws its randomness through one
:class:`~repro.simulation.rng.DrawSource`, picked once from
:data:`~repro.simulation.rng.DRAW_SOURCES` by ``rng_mode``: the counter
streams, or the matrix replay adapter that keeps archived rows
reproducible.  There is one draw path and one decision path; two
execution modes traverse the identical pipeline over identical
pre-drawn randomness:

* ``mode="batch"`` (the default) — receivers advance in numpy batches:
  one model call per stage covers every receiver in the chunk and one
  uniform matrix supplies every decision, which makes 100k+-receiver
  populations practical.  Chunks of ``batch_size`` receivers are folded
  into a streaming :class:`~repro.simulation.metrics.SimulationTally`, so
  memory stays O(batch).  Chunks return only integer tallies; for runs
  within ``record_limit`` the full per-receiver records (with stage
  traces) are regenerated from the chunks' coordinates on first read.
  Counter draws recycle draw buffers owned by the
  :class:`HumanLoopSimulator`; the module keeps no draw state of its own.
* ``mode="reference"`` — the same traversal kernel at width 1: each row of
  the pre-drawn arrays is sliced into a one-receiver batch
  (:meth:`~repro.simulation.batch.DrawBatch.row`) and evaluated
  independently, so the per-receiver outcomes must match the batch mode
  exactly (the equivalence regression test relies on this).

**Multi-round simulation** (``rounds > 1``) advances the *same* pre-drawn
population through repeated hazard encounters, folding the habituation
dynamics of Section 2.3.1 into the engine: each chunk draws its traits
once, then per round draws fresh encounter randomness
(:func:`repro.simulation.batch.redraw_decisions_counter`) and threads a
vectorized per-receiver exposure array through the attention-switch
stage.  Since
only exposure and noise change between rounds, a batch chunk computes
every other stage term once
(:meth:`~repro.core.pipeline.PipelinePlan.receiver_terms`) and each round
applies just the habituation factor, the noise and the calibration;
reference mode keeps recomputing every term as the oracle.  Between
rounds the array advances by the shared accounting rule of
:func:`repro.simulation.habituation.advance_exposures` — receivers the
communication actually reached accrue exposure, then everyone recovers
through the exposure-free gap at ``recovery_rate`` — so notice
probabilities decay per receiver, per round, exactly as
:func:`repro.core.probabilities.habituation_factor` prescribes.  The
accrual is **outcome-coupled**: the realized outcomes of each round feed
back into the update, so a delivered encounter weighs ``heed_weight``
exposures when it ended with the hazard avoided and ``dismiss_weight``
when the receiver proceeded into the hazard (see
:func:`~repro.simulation.habituation.advance_exposures` for the exact
split, including the blocking-warning fail-safe case).  Both weights
default to 1.0, which reproduces the delivery-only accrual rule bit for
bit.  Round 0 consumes the identical draw stream a single-shot run
would, which keeps ``rounds=1`` bit-identical to the single-shot engine;
both execution modes share the exposure arrays, the per-round draw
layout, and the realized outcomes, so batch/reference equivalence holds
round by round.  Each round's outcomes stream into one
:class:`~repro.simulation.metrics.RoundTally` and, with tracing enabled
(the default), one per-stage
:class:`~repro.simulation.metrics.FunnelTally`; the overall
:class:`~repro.simulation.metrics.SimulationTally` and funnel are the
exact integer sums of the per-round ones, keeping per-stage survival and
conditional-failure analytics O(batch) in memory.

**Fan-out.**  Chunks are pure functions of ``(seed, chunk index)``, so
the engine may run them anywhere and fold their tallies in chunk order.
A batch-mode run with ``rounds > 1``, at least two chunks and at least
:data:`FAN_OUT_MIN_RECEIVER_ROUNDS` receiver-rounds splits its chunks
into contiguous groups on the shared local pool
(:mod:`repro.simulation.pool`), one group per usable CPU at most; every
other run, and every run inside a multiprocessing child, stays serial.
There is no knob: the result is bit-identical either way, and
``SimulationResult.chunk_workers`` records how many processes the chunks
ran on.  Each chunk times its phases
(:data:`~repro.simulation.metrics.ENGINE_PHASES`) and the result sums
them, so the phase times survive the fan-out.

Outcome semantics mirror the case studies:

* For **blocking** communications (the Firefox and active IE anti-phishing
  warnings), the safe outcome is the default: a receiver only reaches the
  hazard by explicitly overriding.  Receivers who never understand the
  warning mostly "fail safely"; receivers who decide to ignore it override
  and are unprotected.
* For **passive** communications (the passive IE warning, toolbar
  indicators), the hazard proceeds by default: any failure before a
  successful protective action leaves the receiver unprotected.
* A receiver facing a **spoofed** indicator (attacker interference) is
  unprotected regardless of their own processing.
"""

from __future__ import annotations

import collections.abc
import contextlib
import dataclasses
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..core.exceptions import SimulationError
from ..core.impediments import Environment
from ..core.pipeline import PipelinePlan, build_pipeline
from ..core.task import HumanSecurityTask
from . import batch as batch_module
from . import habituation as habituation_module
from . import pool
from .attacker import AttackerModel
from .calibration import StageCalibration
from .metrics import (
    ENGINE_PHASES,
    FunnelTally,
    ReceiverRecord,
    RoundTally,
    SimulationResult,
    SimulationTally,
)
from .population import PopulationSpec
from .rng import DRAW_SOURCES, DrawBuffers, DrawSource

__all__ = [
    "SimulationConfig",
    "HumanLoopSimulator",
    "SIMULATION_MODES",
    "RNG_MODES",
    "NON_PROVENANCE_CONFIG_FIELDS",
    "FAN_OUT_MIN_RECEIVER_ROUNDS",
]

#: Supported execution modes (see module docstring).
SIMULATION_MODES = ("batch", "reference")

#: :class:`SimulationConfig` fields excluded from serialized result
#: provenance, machine-checked by ``repro.devtools`` rule REP003: the
#: ``attacker`` is structural input rebuilt from the task/scenario
#: declaration the provenance already names, and ``record_limit`` only
#: bounds which runs offer their derived per-receiver records —
#: records are never serialized, and the streaming aggregates do not
#: depend on it.  Every other config field must appear in
#: :func:`repro.io.json_io.simulation_result_to_dict`'s provenance block.
NON_PROVENANCE_CONFIG_FIELDS = ("attacker", "record_limit")

#: Supported decision-stream sources, the keys of
#: :data:`~repro.simulation.rng.DRAW_SOURCES`.  ``"counter"`` — keyed
#: counter streams (:class:`~repro.simulation.rng.CounterDraws`), where
#: every draw is O(1)-addressable by (seed, chunk, round, stream,
#: receiver); the engine default since it overtook the matrix path
#: (``BENCH_engine.json``).  ``"matrix"`` — the sequential layout,
#: replayed through :class:`~repro.simulation.rng.MatrixDraws` so
#: persisted results recorded under it stay reproducible
#: (``reproduce_row`` pins the mode from provenance).  The two sources
#: draw different floats for the same seed, so the mode is part of a
#: run's reproducibility provenance; within either mode, batch and
#: reference execution stay bit-identical.
RNG_MODES = tuple(DRAW_SOURCES)


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """Configuration for one simulation run.

    ``batch_size`` bounds the number of receivers materialized as arrays
    at any moment; ``record_limit`` bounds the number of receiver-round
    encounters for which full per-receiver records are offered,
    regenerated from the chunk coordinates on first read (beyond it,
    only the streaming tallies are retained).  ``rounds`` is the number of
    hazard encounters each receiver faces and ``recovery_rate`` the
    habituation recovery applied in the exposure-free gap between rounds
    (see the module docstring).  ``dismiss_weight`` / ``heed_weight``
    couple the exposure accrual to realized outcomes (1.0/1.0 — the
    delivery-only rule, bit for bit); ``trace`` keeps the streaming
    per-stage funnel tallies — folded from the traversal kernel's fused
    counts-only reduction, so the cost is a few percent of throughput
    (see ``BENCH_trace.json``).

    ``rng_mode`` selects the decision-stream source (see
    :data:`RNG_MODES`).  Where the chunks run is not configurable: the
    engine decides (see "Fan-out" in the module docstring), and the
    result is bit-identical wherever they ran.
    """

    n_receivers: int = 500
    seed: int = 0
    calibration: StageCalibration = dataclasses.field(default_factory=StageCalibration.neutral)
    attacker: Optional[AttackerModel] = None
    mode: str = "batch"
    batch_size: int = 25_000
    record_limit: int = 10_000
    rounds: int = 1
    recovery_rate: float = 0.0
    dismiss_weight: float = 1.0
    heed_weight: float = 1.0
    trace: bool = True
    rng_mode: str = "counter"

    def __post_init__(self) -> None:
        if self.n_receivers < 0:
            raise SimulationError("n_receivers must be non-negative")
        if self.seed < 0:
            raise SimulationError("seed must be non-negative")
        if self.mode not in SIMULATION_MODES:
            raise SimulationError(
                f"mode must be one of {SIMULATION_MODES}, got {self.mode!r}"
            )
        if self.batch_size <= 0:
            raise SimulationError("batch_size must be positive")
        if self.record_limit < 0:
            raise SimulationError("record_limit must be non-negative")
        if self.rounds < 1:
            raise SimulationError("rounds must be >= 1")
        if not 0.0 <= self.recovery_rate <= 1.0:
            raise SimulationError("recovery_rate must be in [0, 1]")
        if self.dismiss_weight < 0.0 or self.heed_weight < 0.0:
            raise SimulationError("habituation weights must be non-negative")
        if self.rng_mode not in RNG_MODES:
            raise SimulationError(
                f"rng_mode must be one of {RNG_MODES}, got {self.rng_mode!r}"
            )


@dataclasses.dataclass(frozen=True)
class _ChunkSpec:
    """One chunk of one simulate call, as a picklable work unit.

    Everything a worker process needs to reproduce the chunk exactly: the
    run's ``config`` and the chunk's place in it.  Both rng modes derive
    chunk randomness from ``(config.seed, chunk_index)`` alone (never from
    sibling chunks), which is what makes the partials identical whichever
    process — or order — computes them, and what lets the run's records be
    regenerated from the specs.  A group of chunks pickles together, so
    the shared config travels once per pool task.
    """

    plan: PipelinePlan
    population: PopulationSpec
    config: SimulationConfig
    chunk_index: int
    offset: int
    size: int

    def draws(self) -> DrawSource:
        """The chunk's round-0 cell of its rng mode's draw source."""
        return DRAW_SOURCES[self.config.rng_mode](self.config.seed, self.chunk_index)


@dataclasses.dataclass
class _ChunkPartial:
    """One chunk's integer tallies, merged into the result in chunk order.

    Each round's outcomes are folded once, into that round's tallies; the
    run's aggregate tally and funnel are merged from the per-round ones
    (integer counts, so the sums are exact).
    """

    round_tallies: List[RoundTally]
    round_funnels: List[FunnelTally]
    phase_seconds: Dict[str, float] = dataclasses.field(
        default_factory=dict, compare=False
    )


class _PhaseClock:
    """Wall time per engine phase, lap by lap.

    Each :meth:`lap` charges the time since the previous lap to one
    phase, so consecutive laps cover the chunk without a gap.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.seconds = dict.fromkeys(ENGINE_PHASES, 0.0)
        self._last = clock()

    def lap(self, phase: str) -> None:
        now = self._clock()
        self.seconds[phase] += now - self._last
        self._last = now


def _chunk_specs(
    plan: PipelinePlan, population: PopulationSpec, config: SimulationConfig
) -> List[_ChunkSpec]:
    """One run's chunks of ``batch_size`` receivers, in chunk order."""
    return [
        _ChunkSpec(
            plan=plan,
            population=population,
            config=config,
            chunk_index=chunk_index,
            offset=offset,
            size=min(config.batch_size, config.n_receivers - offset),
        )
        for chunk_index, offset in enumerate(
            range(0, config.n_receivers, config.batch_size)
        )
    ]


def _simulate_chunk(
    spec: _ChunkSpec,
    buffers: Optional[DrawBuffers] = None,
    records: Optional[List[ReceiverRecord]] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> _ChunkPartial:
    """Advance one chunk of receivers through every hazard-encounter round.

    The extracted body of the engine's chunk loop, shared by the serial
    path, the pool groups (:func:`_simulate_group`) and record
    regeneration.  Integer tallies merged in chunk order reproduce the
    streaming serial fold bit for bit.  Counter draws recycle ``buffers``
    from round to round (fresh arrays without them; the matrix replay
    adapter ignores them).  With a ``records`` list, each round's records
    are appended to it while that round's draws are still live.  The
    partial carries the chunk's phase times, read from ``clock``.
    """
    laps = _PhaseClock(clock)
    plan, config = spec.plan, spec.config
    rounds, mode, want_trace = config.rounds, config.mode, bool(config.trace)
    partial = _ChunkPartial(
        round_tallies=[RoundTally(round_index=index) for index in range(rounds)],
        round_funnels=[FunnelTally() for _ in range(rounds)] if want_trace else [],
    )
    cell = spec.draws()
    draws = batch_module.draw_batch_counter(
        plan, spec.population, spec.size, cell, buffers=buffers
    )
    laps.lap("simulation.traits")
    # Single-shot runs never read the exposure state; keep that hot path
    # allocation-free.
    exposures = (
        habituation_module.initial_exposures(plan.communication, spec.size)
        if rounds > 1
        else None
    )
    laps.lap("simulation.habituation")
    # Only exposure and noise change between rounds, so a multi-round batch
    # chunk computes every other stage term once.  Single-round chunks
    # have nothing to share, and the reference oracle keeps recomputing
    # every term per row and per round.
    terms = (
        plan.receiver_terms(batch_module.BatchReceivers(draws.samples))
        if rounds > 1 and mode == "batch" and plan.has_communication
        else None
    )
    laps.lap("core.pipeline")
    for round_index in range(rounds):
        if round_index:
            # Same receivers, fresh encounter randomness from the round's
            # cell (round 0 drew from the chunk cell itself, preserving
            # the single-shot draw layout exactly).
            draws = batch_module.redraw_decisions_counter(
                plan, draws.samples, cell.for_round(round_index), buffers=buffers
            )
            laps.lap("simulation.encounter")
        # Round 0 keeps the communication's scalar baked-in count (the
        # single-shot reading); later rounds thread the evolved
        # per-receiver array.
        round_exposures = exposures if round_index else None
        round_tally = partial.round_tallies[round_index]
        round_funnel = partial.round_funnels[round_index] if want_trace else None
        advancing = exposures is not None and round_index + 1 < rounds
        if mode == "batch":
            outcomes = batch_module.evaluate_batch(
                plan,
                draws,
                exposures=round_exposures,
                trace="counts" if want_trace else False,
                terms=terms,
            )
            laps.lap("core.pipeline")
            round_tally.add_batch(outcomes)
            if round_funnel is not None:
                round_funnel.add_counts(outcomes.funnel_counts)
            if records is not None:
                records.extend(
                    batch_module.records_from_batch(
                        outcomes, draws, start_index=spec.offset, round_index=round_index
                    )
                )
            laps.lap("simulation.metrics")
            protected = outcomes.protected
        else:
            # Reference mode: the same traversal kernel at width 1, one
            # row slice at a time (each receiver evaluated in isolation
            # over identical pre-drawn floats).
            protected = np.zeros(spec.size, dtype=bool) if advancing else None
            for row in range(spec.size):
                row_draws = draws.row(row)
                row_outcomes = batch_module.evaluate_batch(
                    plan,
                    row_draws,
                    exposures=(
                        None if round_exposures is None
                        else round_exposures[row : row + 1]
                    ),
                    trace="counts" if want_trace else False,
                )
                record = batch_module.records_from_batch(
                    row_outcomes,
                    row_draws,
                    start_index=spec.offset + row,
                    round_index=round_index,
                )[0]
                round_tally.add_record(record)
                if round_funnel is not None:
                    round_funnel.add_counts(row_outcomes.funnel_counts)
                if records is not None:
                    records.append(record)
                if advancing:
                    protected[row] = bool(row_outcomes.protected[0])
            laps.lap("core.pipeline")
        if advancing:
            # Outcome-coupled accrual: delivery (spoof draws) says who the
            # communication reached, the realized outcomes say how hard
            # the encounter habituates.  Both modes feed the identical
            # floats (reference is the kernel at width 1), so the exposure
            # trajectories agree bit for bit.
            delivered = draws.spoof_uniforms >= plan.spoof_probability
            exposures = habituation_module.advance_exposures(
                exposures,
                delivered,
                config.recovery_rate,
                heeded=protected,
                dismiss_weight=config.dismiss_weight,
                heed_weight=config.heed_weight,
            )
            laps.lap("simulation.habituation")
    partial.phase_seconds = laps.seconds
    return partial


def _simulate_group(specs: Sequence[_ChunkSpec]) -> List[_ChunkPartial]:
    """One pool task: a contiguous group of a run's chunks, in chunk order.

    The group's chunks draw through one :class:`DrawBuffers` local to
    the task, so pool workers keep no draw state between tasks.
    """
    buffers = DrawBuffers()
    return [_simulate_chunk(spec, buffers) for spec in specs]


class _RecordSequence(collections.abc.Sequence):
    """A run's per-receiver records, regenerated from its chunk specs.

    Chunks return only tallies.  Each chunk's randomness is keyed by
    ``(seed, chunk index)`` alone, so re-running the chunks with record
    building on yields the records the run would have built, bit for
    bit.  The first read pays for that once; unread records cost nothing.
    Pickling produces a plain list of the records.
    """

    def __init__(self, specs: Sequence[_ChunkSpec]) -> None:
        self._specs = tuple(specs)
        self._records: Optional[List[ReceiverRecord]] = None

    def _materialized(self) -> List[ReceiverRecord]:
        if self._records is None:
            records: List[ReceiverRecord] = []
            for spec in self._specs:
                _simulate_chunk(spec, records=records)
            self._records = records
        return self._records

    def __len__(self) -> int:
        return sum(spec.size * spec.config.rounds for spec in self._specs)

    def __getitem__(self, index):
        return self._materialized()[index]

    def __iter__(self) -> Iterator[ReceiverRecord]:
        return iter(self._materialized())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, collections.abc.Sequence):
            return NotImplemented
        return self._materialized() == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._materialized())

    def __reduce__(self):
        return (list, (self._materialized(),))


#: The smallest multi-round run, in receiver-rounds, whose chunks fan out.
#: Below it, shipping the work to the pool costs more than the second core
#: saves (2-vCPU container, medians of alternating calls; see CHANGES.md).
FAN_OUT_MIN_RECEIVER_ROUNDS = 50_000


def _fan_out(config: SimulationConfig, chunks: int) -> int:
    """How many pool groups a run's chunks split into; 1 runs them here.

    Only batch-mode runs with ``rounds > 1``, at least two chunks and at
    least :data:`FAN_OUT_MIN_RECEIVER_ROUNDS` receiver-rounds fan out,
    and never from inside a multiprocessing child.  One-round runs stay
    serial: their chunks are too short to pay for the dispatch.
    """
    if (
        config.mode != "batch"
        or config.rounds < 2
        or chunks < 2
        or config.n_receivers * config.rounds < FAN_OUT_MIN_RECEIVER_ROUNDS
        or not pool.can_fan_out()
    ):
        return 1
    return min(chunks, pool.usable_cpus())


class HumanLoopSimulator:
    """Monte-Carlo simulator of humans in the loop of a secure system.

    The simulator owns the :class:`~repro.simulation.rng.DrawBuffers` its
    serial counter-mode chunks draw into, so consecutive chunks and calls
    recycle the same memory.  A call that finds them in use by another
    thread draws into private buffers instead: concurrent calls on one
    simulator never share memory.
    """

    def __init__(self, config: Optional[SimulationConfig] = None) -> None:
        self.config = config or SimulationConfig()
        self._buffers = DrawBuffers()
        self._buffers_lock = threading.Lock()

    # -- public API -------------------------------------------------------------

    def simulate_task(
        self,
        task: HumanSecurityTask,
        population: PopulationSpec,
        n_receivers: Optional[int] = None,
        seed: Optional[int] = None,
        mode: Optional[str] = None,
        rounds: Optional[int] = None,
        recovery_rate: Optional[float] = None,
        dismiss_weight: Optional[float] = None,
        heed_weight: Optional[float] = None,
        trace: Optional[bool] = None,
        rng_mode: Optional[str] = None,
    ) -> SimulationResult:
        """Simulate ``n_receivers`` independent receivers encountering the task.

        ``mode`` overrides the configured execution mode for this run
        ("batch" or "reference"); both modes consume the same pre-drawn
        randomness chunk by chunk, so for a fixed (seed, batch_size) their
        aggregate outcomes are identical.

        ``rounds`` advances the same receivers through that many hazard
        encounters, carrying per-receiver habituation exposure state between
        them (decayed by ``recovery_rate`` in the exposure-free gaps, with
        the accrual of each encounter weighted by its realized outcome —
        ``dismiss_weight`` / ``heed_weight``); see the module docstring for
        the dynamics.  ``rounds=1`` is the single-shot engine, bit for bit,
        and unit weights reproduce the delivery-only accrual exactly.
        ``trace`` toggles the streaming per-stage funnel tallies.

        ``rng_mode`` selects the decision-stream source ("matrix" or
        "counter", see :data:`RNG_MODES`).  A large multi-round run fans
        its chunks out over the local pool (see "Fan-out" in the module
        docstring); the partials merge in chunk order, bit-identical to
        the serial fold.
        """
        overrides = {
            "n_receivers": n_receivers,
            "seed": seed,
            "mode": mode,
            "rounds": rounds,
            "recovery_rate": recovery_rate,
            "dismiss_weight": dismiss_weight,
            "heed_weight": heed_weight,
            "trace": trace,
            "rng_mode": rng_mode,
        }
        # SimulationConfig validates every knob, per-call overrides included.
        config = dataclasses.replace(
            self.config,
            **{name: value for name, value in overrides.items() if value is not None},
        )
        count, mode, rounds = config.n_receivers, config.mode, config.rounds
        want_trace = bool(config.trace)

        started = time.perf_counter()
        plan = self._plan_for(task)

        result = SimulationResult(
            task_name=task.name,
            population_name=population.name,
            seed=config.seed,
            calibration_label=config.calibration.label,
            tally=SimulationTally(),
            mode=mode,
            batch_size=config.batch_size,
            rounds=rounds,
            recovery_rate=config.recovery_rate,
            round_tallies=[RoundTally(round_index=index) for index in range(rounds)],
            funnel=FunnelTally() if want_trace else None,
            round_funnels=[FunnelTally() for _ in range(rounds)] if want_trace else [],
            dismiss_weight=config.dismiss_weight,
            heed_weight=config.heed_weight,
            rng_mode=config.rng_mode,
            phase_seconds=dict.fromkeys(ENGINE_PHASES, 0.0),
        )

        specs = _chunk_specs(plan, population, config)
        groups = _fan_out(config, len(specs))
        if groups > 1:
            partials, result.chunk_workers = pool.run_groups(
                _simulate_group, specs, groups
            )
        else:
            with self._draw_buffers() as buffers:
                partials = [_simulate_chunk(spec, buffers) for spec in specs]

        folding = time.perf_counter()
        for partial in partials:
            for phase, seconds in partial.phase_seconds.items():
                result.phase_seconds[phase] += seconds
            for round_tally, partial_round in zip(result.round_tallies, partial.round_tallies):
                round_tally.merge(partial_round)
            for funnel, partial_funnel in zip(result.round_funnels, partial.round_funnels):
                funnel.merge(partial_funnel)
        for round_tally in result.round_tallies:
            result.tally.merge(round_tally)
        for funnel in result.round_funnels:
            result.funnel.merge(funnel)
        result.phase_seconds["simulation.metrics"] += time.perf_counter() - folding
        if mode == "reference" or count * rounds <= config.record_limit:
            result.records = _RecordSequence(specs)
        result.chunks = len(specs)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # -- internals ----------------------------------------------------------------

    @contextlib.contextmanager
    def _draw_buffers(self) -> Iterator[DrawBuffers]:
        """This simulator's buffers, or private ones while another call holds them."""
        if not self._buffers_lock.acquire(blocking=False):
            yield DrawBuffers()
            return
        try:
            yield self._buffers
        finally:
            self._buffers_lock.release()

    def _plan_for(self, task: HumanSecurityTask) -> PipelinePlan:
        return build_pipeline(
            task,
            calibration=self.config.calibration,
            environment=self._effective_environment(task.environment),
        )

    def _effective_environment(self, environment: Environment) -> Environment:
        if self.config.attacker is None:
            return environment
        return self.config.attacker.apply_to(environment)
