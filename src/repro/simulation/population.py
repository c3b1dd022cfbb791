"""Population models: sampling simulated human receivers.

The paper's case studies reason about *populations* ("people with a wide
range of knowledge, abilities, and other personal characteristics, many of
whom have little or no knowledge about phishing"; "complete novice through
security expert").  The user studies it cites measured real populations; we
substitute synthetic ones.  A :class:`PopulationSpec` describes the
distribution of every receiver trait the framework consumes, and
:meth:`PopulationSpec.sample` draws a concrete
:class:`~repro.core.receiver.HumanReceiver` from it, while
:meth:`PopulationSpec.sample_traits` draws a whole batch as trait arrays
from any :class:`~repro.simulation.rng.DrawSource` (the engine's path).

Preset populations:

* :func:`general_web_population` — broad consumer population used in the
  anti-phishing case study,
* :func:`organization_population` — an employee population used in the
  password-policy case study,
* :func:`expert_population` — security-savvy users, useful as a contrast
  group and for ablations.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..core.exceptions import SimulationError
from ..core.receiver import (
    AttitudesBeliefs,
    Capabilities,
    Demographics,
    EducationLevel,
    HumanReceiver,
    Intentions,
    KnowledgeExperience,
    Motivation,
    PersonalVariables,
)
from .rng import (
    AGE_STREAMS,
    TRAINED_STREAM,
    DrawBuffers,
    DrawSource,
    SimulationRng,
    trait_streams,
)

__all__ = [
    "TraitDistribution",
    "TraitSamples",
    "TRAIT_NAMES",
    "PopulationSpec",
    "general_web_population",
    "organization_population",
    "expert_population",
]


@dataclasses.dataclass(frozen=True)
class TraitDistribution:
    """Truncated-normal distribution of a single 0–1 receiver trait."""

    mean: float
    std: float = 0.15
    low: float = 0.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if not self.low <= self.mean <= self.high:
            raise SimulationError(
                f"mean {self.mean} outside [{self.low}, {self.high}]"
            )
        if self.std < 0:
            raise SimulationError("std must be non-negative")

    def sample(self, rng: SimulationRng) -> float:
        return rng.truncated_normal(self.mean, self.std, self.low, self.high)


# Trait names accepted by PopulationSpec, with library-wide defaults.
_DEFAULT_TRAITS: Dict[str, TraitDistribution] = {
    "security_knowledge": TraitDistribution(0.35),
    "domain_knowledge": TraitDistribution(0.35),
    "computer_proficiency": TraitDistribution(0.55),
    "prior_exposure": TraitDistribution(0.4),
    "trust": TraitDistribution(0.6),
    "perceived_relevance": TraitDistribution(0.6),
    "risk_perception": TraitDistribution(0.45),
    "self_efficacy": TraitDistribution(0.55),
    "response_efficacy": TraitDistribution(0.55),
    "perceived_time_cost": TraitDistribution(0.3),
    "annoyance": TraitDistribution(0.25),
    "conflicting_goals": TraitDistribution(0.3),
    "primary_task_pressure": TraitDistribution(0.5),
    "perceived_consequences": TraitDistribution(0.45),
    "incentives": TraitDistribution(0.1, 0.1),
    "disincentives": TraitDistribution(0.1, 0.1),
    "convenience_cost": TraitDistribution(0.35),
    "knowledge_to_act": TraitDistribution(0.55),
    "cognitive_skill": TraitDistribution(0.6),
    "physical_skill": TraitDistribution(0.9, 0.05),
    "memory_capacity": TraitDistribution(0.5),
}


#: Canonical trait order; batch sampling draws traits in exactly this order.
TRAIT_NAMES = tuple(_DEFAULT_TRAITS)


@dataclasses.dataclass(frozen=True)
class TraitSamples:
    """A batch of sampled receivers as a struct of arrays.

    One row per receiver; ``traits`` maps every name in :data:`TRAIT_NAMES`
    to a vector of 0-1 samples.  This is the population representation the
    engine consumes, in both execution modes.
    """

    population_name: str
    traits: Dict[str, np.ndarray]
    ages: np.ndarray
    trained: np.ndarray

    @property
    def count(self) -> int:
        return int(self.ages.shape[0])


@dataclasses.dataclass
class PopulationSpec:
    """A distribution over human receivers.

    Parameters
    ----------
    name:
        Population name (appears in simulation results).
    traits:
        Overrides for any subset of the trait distributions; unspecified
        traits use library defaults representative of a general population.
    training_fraction:
        Fraction of the population that has received relevant security
        training.
    mean_age / age_spread:
        Demographic age distribution (years).
    """

    name: str
    traits: Dict[str, TraitDistribution] = dataclasses.field(default_factory=dict)
    training_fraction: float = 0.1
    mean_age: float = 38.0
    age_spread: float = 12.0
    description: str = ""

    def __post_init__(self) -> None:
        unknown = set(self.traits) - set(_DEFAULT_TRAITS)
        if unknown:
            raise SimulationError(f"unknown trait names: {sorted(unknown)}")
        if not 0.0 <= self.training_fraction <= 1.0:
            raise SimulationError("training_fraction must be in [0, 1]")
        if self.mean_age <= 0 or self.age_spread < 0:
            raise SimulationError("age parameters must be positive")

    def distribution(self, trait: str) -> TraitDistribution:
        """The effective distribution for a trait (override or default)."""
        if trait not in _DEFAULT_TRAITS:
            raise SimulationError(f"unknown trait {trait!r}")
        return self.traits.get(trait, _DEFAULT_TRAITS[trait])

    def with_trait(self, trait: str, distribution: TraitDistribution) -> "PopulationSpec":
        """Return a copy of the spec with one trait distribution replaced."""
        updated = dict(self.traits)
        if trait not in _DEFAULT_TRAITS:
            raise SimulationError(f"unknown trait {trait!r}")
        updated[trait] = distribution
        return dataclasses.replace(self, traits=updated)

    def sample(self, rng: SimulationRng, name: str = "") -> HumanReceiver:
        """Draw one receiver from the population."""
        draw = {trait: self.distribution(trait).sample(rng) for trait in _DEFAULT_TRAITS}
        age = int(round(rng.truncated_normal(self.mean_age, self.age_spread, 18, 90)))
        trained = rng.bernoulli(self.training_fraction)
        return HumanReceiver(
            name=name or f"{self.name}-member",
            personal_variables=PersonalVariables(
                demographics=Demographics(age=age, education=EducationLevel.UNDERGRADUATE),
                knowledge=KnowledgeExperience(
                    security_knowledge=draw["security_knowledge"],
                    domain_knowledge=draw["domain_knowledge"],
                    computer_proficiency=draw["computer_proficiency"],
                    prior_exposure=draw["prior_exposure"],
                    has_received_training=trained,
                ),
            ),
            intentions=Intentions(
                attitudes=AttitudesBeliefs(
                    trust=draw["trust"],
                    perceived_relevance=draw["perceived_relevance"],
                    risk_perception=draw["risk_perception"],
                    self_efficacy=draw["self_efficacy"],
                    response_efficacy=draw["response_efficacy"],
                    perceived_time_cost=draw["perceived_time_cost"],
                    annoyance=draw["annoyance"],
                ),
                motivation=Motivation(
                    conflicting_goals=draw["conflicting_goals"],
                    primary_task_pressure=draw["primary_task_pressure"],
                    perceived_consequences=draw["perceived_consequences"],
                    incentives=draw["incentives"],
                    disincentives=draw["disincentives"],
                    convenience_cost=draw["convenience_cost"],
                ),
            ),
            capabilities=Capabilities(
                knowledge_to_act=draw["knowledge_to_act"],
                cognitive_skill=draw["cognitive_skill"],
                physical_skill=draw["physical_skill"],
                memory_capacity=draw["memory_capacity"],
            ),
        )

    def sample_many(self, count: int, rng: SimulationRng) -> List[HumanReceiver]:
        """Draw ``count`` receivers, each from an independent child stream."""
        if count < 0:
            raise SimulationError("count must be non-negative")
        return [
            self.sample(rng.spawn(index), name=f"{self.name}-{index}")
            for index in range(count)
        ]

    def sample_traits(
        self,
        count: int,
        draws: DrawSource,
        buffers: Optional[DrawBuffers] = None,
    ) -> TraitSamples:
        """Draw ``count`` receivers at once as a struct of arrays.

        One :meth:`~repro.simulation.rng.DrawSource.clipped_normal_block`
        call draws a row per trait in :data:`TRAIT_NAMES` order plus the
        age row, then the training uniforms follow.  From
        :class:`~repro.simulation.rng.CounterDraws`, trait ``k`` reads its
        own Box-Muller stream pair and ages and training uniforms theirs,
        so any single receiver's traits are recomputable in O(1)
        (:meth:`~repro.simulation.rng.CounterDraws.clipped_normal_at`) and
        the transcendentals run as one vectorized pass over the block;
        :class:`~repro.simulation.rng.MatrixDraws` replays the same calls
        in the historical sequential order.  With ``buffers`` the trait
        arrays may be views of a recycled block, valid until the next
        same-shape draw from those buffers.
        """
        if count < 0:
            raise SimulationError("count must be non-negative")
        distributions = [self.distribution(trait) for trait in TRAIT_NAMES]
        pairs = [trait_streams(index) for index in range(len(TRAIT_NAMES))]
        pairs.append(AGE_STREAMS)
        block = draws.clipped_normal_block(
            pairs,
            [d.mean for d in distributions] + [self.mean_age],
            [d.std for d in distributions] + [self.age_spread],
            [d.low for d in distributions] + [18],
            [d.high for d in distributions] + [90],
            count,
            buffers=buffers,
        )
        traits = {trait: block[index] for index, trait in enumerate(TRAIT_NAMES)}
        ages = np.rint(block[len(TRAIT_NAMES)]).astype(int)
        trained = draws.uniforms(TRAINED_STREAM, count) < self.training_fraction
        return TraitSamples(
            population_name=self.name, traits=traits, ages=ages, trained=trained
        )


def general_web_population() -> PopulationSpec:
    """Broad consumer web-browsing population (anti-phishing case study).

    Most members have little or no knowledge about phishing, moderate
    computer proficiency, and are busy with a primary task.
    """
    return PopulationSpec(
        name="general-web",
        description="General web users; many have little or no knowledge about phishing.",
        traits={
            "security_knowledge": TraitDistribution(0.25, 0.18),
            "domain_knowledge": TraitDistribution(0.25, 0.2),
            "computer_proficiency": TraitDistribution(0.55, 0.2),
            "prior_exposure": TraitDistribution(0.3, 0.2),
            "risk_perception": TraitDistribution(0.4, 0.2),
            "primary_task_pressure": TraitDistribution(0.6, 0.2),
            "perceived_consequences": TraitDistribution(0.45, 0.2),
        },
        training_fraction=0.05,
        mean_age=38.0,
    )


def organization_population() -> PopulationSpec:
    """Employee population of a typical organization (password case study).

    Spans complete novices through experts, is subject to organizational
    policy (so has been exposed to the policy communication at least once),
    and experiences real goal conflict between security tasks and getting
    work done.
    """
    return PopulationSpec(
        name="organization",
        description="Organization employees subject to a password policy.",
        traits={
            "security_knowledge": TraitDistribution(0.4, 0.25),
            "domain_knowledge": TraitDistribution(0.5, 0.25),
            "prior_exposure": TraitDistribution(0.7, 0.2),
            "conflicting_goals": TraitDistribution(0.45, 0.2),
            "primary_task_pressure": TraitDistribution(0.6, 0.2),
            "perceived_consequences": TraitDistribution(0.4, 0.2),
            "convenience_cost": TraitDistribution(0.55, 0.2),
            "memory_capacity": TraitDistribution(0.45, 0.15),
        },
        training_fraction=0.4,
        mean_age=40.0,
    )


def expert_population() -> PopulationSpec:
    """Security-savvy population used as a contrast group."""
    return PopulationSpec(
        name="expert",
        description="Security experts and power users.",
        traits={
            "security_knowledge": TraitDistribution(0.85, 0.1),
            "domain_knowledge": TraitDistribution(0.8, 0.12),
            "computer_proficiency": TraitDistribution(0.9, 0.08),
            "prior_exposure": TraitDistribution(0.85, 0.1),
            "self_efficacy": TraitDistribution(0.85, 0.1),
            "response_efficacy": TraitDistribution(0.75, 0.1),
            "knowledge_to_act": TraitDistribution(0.85, 0.1),
            "risk_perception": TraitDistribution(0.6, 0.15),
        },
        training_fraction=0.9,
        mean_age=36.0,
    )
