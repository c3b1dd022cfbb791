"""Habituation dynamics over repeated exposures.

Section 2.3.1: "communication delivery may also be impacted by habituation,
the tendency for the impact of a stimuli to decrease over time as people
become more accustomed to it.  In practice this means that over time users
may ignore security indicators that they observe frequently."

The static habituation factor lives in
:func:`repro.core.probabilities.habituation_factor`; this module owns the
*dynamics* in two forms that share one exposure-accounting rule:

* the scalar :class:`HabituationState` — per-user bookkeeping that tracks
  (possibly fractional) exposures per communication, with partial recovery
  of attention during exposure-free gaps — plus
  :func:`simulate_exposure_series`, the single-receiver decay trace used by
  the active-vs-passive ablation benchmark (its notice outcomes read one
  seeded :func:`numpy.random.default_rng` uniform per exposure), and
* the vectorized :func:`initial_exposures` / :func:`advance_exposures`
  pair consumed by the multi-round batch engine
  (:meth:`repro.simulation.engine.HumanLoopSimulator.simulate_task` with
  ``rounds > 1``): a per-receiver exposure array seeded from the
  communication's baked-in count and advanced one hazard encounter at a
  time — receivers the communication actually reached gain one exposure,
  then every receiver recovers through the exposure-free gap before the
  next encounter.

Exposure counts are *floats* throughout: recovery multiplies counts by
``(1 - recovery_rate)``, so fractional counts are the normal case and flow
unquantized into :func:`~repro.core.probabilities.habituation_factor`
(which accepts floats and arrays alike).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..core.communication import Communication
from ..core.exceptions import SimulationError
from ..core.impediments import Environment
from ..core.probabilities import attention_switch_probability, habituation_factor
from ..core.receiver import HumanReceiver, typical_receiver

__all__ = [
    "HabituationState",
    "ExposurePoint",
    "simulate_exposure_series",
    "initial_exposures",
    "advance_exposures",
]


@dataclasses.dataclass
class HabituationState:
    """Per-user habituation bookkeeping.

    Exposure counts are tracked per communication name.  ``recover`` models
    the partial recovery of attention after a period without exposures
    (habituation is not permanent): each recovery step removes a fraction
    of the accumulated exposures.

    A communication's baked-in ``habituation_exposures`` is materialized
    into the ``exposures`` dict on first access, so recovery treats
    baked-in and explicitly recorded exposures uniformly — identical
    histories recover identically whether or not an entry happened to
    exist beforehand.
    """

    exposures: Dict[str, float] = dataclasses.field(default_factory=dict)
    recovery_rate: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.recovery_rate <= 1.0:
            raise SimulationError("recovery_rate must be in [0, 1]")

    def exposure_count(self, communication: Communication) -> float:
        """Effective exposure count, including any baked-in prior exposures.

        The baked-in count is materialized into the tracked dict on first
        access so subsequent :meth:`recover` steps decay it like any
        recorded exposure.
        """
        return self.exposures.setdefault(
            communication.name, float(communication.habituation_exposures)
        )

    def record_exposure(self, communication: Communication, weight: float = 1.0) -> None:
        """Record one more exposure to the communication.

        ``weight`` scales how much the encounter habituates — the scalar
        form of the outcome-coupled accrual in :func:`advance_exposures`
        (e.g. a dismissed warning weighs more than a heeded one).
        """
        if weight < 0.0:
            raise SimulationError("exposure weight must be non-negative")
        current = self.exposure_count(communication)
        self.exposures[communication.name] = current + weight

    def recover(self, periods: int = 1) -> None:
        """Apply ``periods`` exposure-free recovery steps to every communication."""
        if periods < 0:
            raise SimulationError("periods must be non-negative")
        factor = (1.0 - self.recovery_rate) ** periods
        for name in list(self.exposures):
            self.exposures[name] *= factor

    def attention_factor(self, communication: Communication) -> float:
        """Current habituation multiplier for a communication.

        Fractional (post-recovery) counts flow through unquantized:
        ``habituation_factor`` is continuous in the exposure count, so 0.6
        and 1.4 effective exposures yield distinct factors.
        """
        count = self.exposure_count(communication)
        return habituation_factor(count, communication.activeness)


@dataclasses.dataclass(frozen=True)
class ExposurePoint:
    """One point of an exposure series: notice probability and realization."""

    exposure_index: int
    notice_probability: float
    noticed: bool


def simulate_exposure_series(
    communication: Communication,
    environment: Optional[Environment] = None,
    receiver: Optional[HumanReceiver] = None,
    exposures: int = 20,
    seed: int = 0,
    recovery_rate: float = 0.0,
    dismiss_weight: float = 1.0,
    heed_weight: float = 1.0,
) -> List[ExposurePoint]:
    """Trace notice probability and outcomes over repeated exposures.

    Each exposure updates the habituation state before the next notice
    probability is computed, so the series shows the decay the paper warns
    about — and shows that the decay is much steeper for passive
    communications than for blocking ones.  A non-zero ``recovery_rate``
    inserts one exposure-free recovery gap between consecutive exposures
    (the same accounting the multi-round engine applies between rounds),
    which leaves fractional effective counts — these feed the probability
    model unquantized.

    ``dismiss_weight`` / ``heed_weight`` apply the outcome-coupled accrual
    at single-receiver scale, with the realized *notice* outcome standing
    in for heeding (the only realized outcome this trace has): an exposure
    the receiver noticed accrues ``heed_weight``, one they looked straight
    past accrues ``dismiss_weight``.  Unit weights (the default) reproduce
    the delivery-only series exactly.

    Exposure ``k`` is noticed when the ``k``-th uniform of
    ``numpy.random.default_rng(seed)`` falls below its notice probability.
    """
    if exposures < 0:
        raise SimulationError("exposures must be non-negative")
    if seed < 0:
        raise SimulationError("seed must be non-negative")
    environment = environment or Environment.typical_desktop()
    receiver = receiver or typical_receiver()
    uniforms = np.random.default_rng(seed).random(exposures)
    state = HabituationState(recovery_rate=recovery_rate)

    series: List[ExposurePoint] = []
    for index in range(exposures):
        count = state.exposure_count(communication)
        probability = attention_switch_probability(
            communication, environment, receiver, exposures=count
        )
        noticed = bool(uniforms[index] < probability)
        series.append(
            ExposurePoint(exposure_index=index, notice_probability=probability, noticed=noticed)
        )
        state.record_exposure(
            communication, weight=heed_weight if noticed else dismiss_weight
        )
        if recovery_rate > 0.0:
            state.recover()
    return series


# ---------------------------------------------------------------------------
# Vectorized exposure state (multi-round engine)
# ---------------------------------------------------------------------------


def initial_exposures(communication: Optional[Communication], count: int) -> Optional[np.ndarray]:
    """Per-receiver exposure array seeded from the baked-in count.

    Returns ``None`` for a task with no communication (there is nothing to
    habituate to).
    """
    if communication is None:
        return None
    if count < 0:
        raise SimulationError("count must be non-negative")
    return np.full(count, float(communication.habituation_exposures))


def advance_exposures(
    exposures: np.ndarray,
    delivered: np.ndarray,
    recovery_rate: float,
    heeded: Optional[np.ndarray] = None,
    dismiss_weight: float = 1.0,
    heed_weight: float = 1.0,
) -> np.ndarray:
    """One engine round's exposure-state update, vectorized.

    Receivers for whom the communication was actually ``delivered`` (it
    was not replaced by an attacker's spoof) accrue exposure; then every
    receiver recovers through the exposure-free gap before the next hazard
    encounter.  With the default weights this is exactly the scalar
    ``state.record_exposure(...); state.recover()`` sequence of
    :class:`HabituationState`, applied to a whole population at once:

    ``e' = (e + delivered) * (1 - recovery_rate)``

    **Outcome-coupled accrual** (Section 2.3.1: habituation is driven by
    what receivers *do* at each encounter): when ``heeded`` — the realized
    per-receiver hazard-avoided outcomes of the round — is supplied, a
    delivered encounter accrues ``heed_weight`` exposures when the
    encounter ended with the hazard avoided and ``dismiss_weight`` when
    the receiver proceeded into the hazard (overrode the warning, decided
    not to comply, or slipped past a passive indicator unprotected):

    ``e' = (e + delivered * where(heeded, heed_weight, dismiss_weight)) * (1 - r)``

    The split is deliberately keyed on *hazard avoided*, the one realized
    outcome both engine modes share per encounter: with a **blocking**
    communication a receiver who never processed the warning fails safe
    and therefore lands on the ``heed_weight`` side — the warning did its
    job without being consciously dismissed — whereas with a passive one
    the same inattention leaves the hazard unblocked and accrues
    ``dismiss_weight``.  ``dismiss_weight > heed_weight`` models receivers
    learning to tune out a warning faster when they keep clicking through
    it.  Both weights default to 1.0, which reproduces the delivery-only
    rule bit for bit — the two branches compute the identical floats.
    """
    if not 0.0 <= recovery_rate <= 1.0:
        raise SimulationError("recovery_rate must be in [0, 1]")
    if dismiss_weight < 0.0 or heed_weight < 0.0:
        raise SimulationError("habituation weights must be non-negative")
    delivered = np.asarray(delivered, dtype=float)
    if dismiss_weight == 1.0 and heed_weight == 1.0:
        # Delivery-only rule (also the outcome-coupled rule at unit
        # weights): keep the historical expression so defaults stay
        # bit-identical.
        increment = delivered
    else:
        if heeded is None:
            raise SimulationError(
                "outcome-coupled weights need the realized outcomes: pass "
                "heeded= (per-receiver hazard-avoided booleans)"
            )
        increment = delivered * np.where(
            np.asarray(heeded, dtype=bool), heed_weight, dismiss_weight
        )
    return (exposures + increment) * (1.0 - recovery_rate)
