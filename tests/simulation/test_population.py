"""Tests for population specifications and receiver sampling."""

import pytest

from repro.core.exceptions import SimulationError
from repro.simulation.batch import BatchReceivers
from repro.simulation.population import (
    PopulationSpec,
    TraitDistribution,
    expert_population,
    general_web_population,
    organization_population,
)
from repro.simulation.rng import CounterDraws


def _receivers(spec: PopulationSpec, count: int, seed: int) -> BatchReceivers:
    return BatchReceivers(spec.sample_traits(count, CounterDraws(seed)))


class TestTraitDistribution:
    def test_sampling_stays_in_bounds(self):
        distribution = TraitDistribution(mean=0.5, std=0.5)
        spec = PopulationSpec(name="p", traits={"trust": distribution})
        samples = spec.sample_traits(200, CounterDraws(1)).traits["trust"]
        assert ((samples >= 0.0) & (samples <= 1.0)).all()

    def test_mean_must_lie_in_bounds(self):
        with pytest.raises(SimulationError):
            TraitDistribution(mean=1.5)

    def test_negative_std_rejected(self):
        with pytest.raises(SimulationError):
            TraitDistribution(mean=0.5, std=-0.1)


class TestPopulationSpec:
    def test_unknown_trait_rejected(self):
        with pytest.raises(SimulationError):
            PopulationSpec(name="p", traits={"charisma": TraitDistribution(0.5)})

    def test_with_trait_returns_modified_copy(self):
        spec = general_web_population()
        modified = spec.with_trait("memory_capacity", TraitDistribution(0.9, 0.01))
        assert modified.distribution("memory_capacity").mean == 0.9
        assert spec.distribution("memory_capacity").mean != 0.9

    def test_with_unknown_trait_rejected(self):
        with pytest.raises(SimulationError):
            general_web_population().with_trait("charisma", TraitDistribution(0.5))

    def test_sample_produces_valid_receiver(self):
        receivers = _receivers(general_web_population(), 50, seed=0)
        assert receivers.count == 50
        for scores in (
            receivers.expertise,
            receivers.intention_score,
            receivers.capability_score,
        ):
            assert ((scores >= 0.0) & (scores <= 1.0)).all()
        ages = receivers.samples.ages
        assert ((ages >= 18) & (ages <= 90)).all()

    def test_sample_traits_negative_rejected(self):
        with pytest.raises(SimulationError):
            general_web_population().sample_traits(-1, CounterDraws(0))

    def test_training_fraction_validated(self):
        with pytest.raises(SimulationError):
            PopulationSpec(name="p", training_fraction=1.5)


class TestPresetPopulations:
    def test_expert_population_more_knowledgeable_on_average(self):
        experts = _receivers(expert_population(), 200, seed=42)
        general = _receivers(general_web_population(), 200, seed=42)
        assert experts.expertise.mean() > general.expertise.mean() + 0.2

    def test_organization_population_has_higher_prior_exposure(self):
        org = organization_population()
        web = general_web_population()
        assert org.distribution("prior_exposure").mean > web.distribution("prior_exposure").mean

    def test_population_names_distinct(self):
        names = {
            general_web_population().name,
            organization_population().name,
            expert_population().name,
        }
        assert len(names) == 3
