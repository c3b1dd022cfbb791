"""Property-based tests (hypothesis) for the simulation substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.communication import Communication, CommunicationType
from repro.core.task import HumanSecurityTask
from repro.simulation.batch import BatchReceivers
from repro.simulation.calibration import StageCalibration
from repro.simulation.engine import HumanLoopSimulator, SimulationConfig
from repro.simulation.metrics import SimulationResult
from repro.simulation.population import (
    PopulationSpec,
    TraitDistribution,
    general_web_population,
)
from repro.simulation.rng import CounterDraws

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


class TestRngProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        mean=unit,
        std=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_truncated_normal_in_bounds(self, seed, mean, std):
        values = CounterDraws(seed).clipped_normals((0, 1), mean, std, 0.0, 1.0, 8)
        assert ((values >= 0.0) & (values <= 1.0)).all()


class TestPopulationProperties:
    @given(mean=unit, std=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_trait_samples_respect_bounds(self, mean, std, seed):
        spec = PopulationSpec(name="p", traits={"trust": TraitDistribution(mean=mean, std=std)})
        samples = spec.sample_traits(8, CounterDraws(seed)).traits["trust"]
        assert ((samples >= 0.0) & (samples <= 1.0)).all()

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_sampled_receivers_always_valid(self, seed):
        samples = general_web_population().sample_traits(8, CounterDraws(seed))
        receivers = BatchReceivers(samples)
        for scores in (
            receivers.expertise,
            receivers.intention_score,
            receivers.capability_score,
        ):
            assert ((scores >= 0.0) & (scores <= 1.0)).all()


class TestEngineProperties:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        activeness=unit,
        clarity=unit,
        n_receivers=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_simulation_invariants(self, seed, activeness, clarity, n_receivers):
        task = HumanSecurityTask(
            name="prop-task",
            communication=Communication(
                name="prop-comm",
                comm_type=CommunicationType.WARNING,
                activeness=activeness,
                clarity=clarity,
            ),
            desired_action="act",
        )
        simulator = HumanLoopSimulator(SimulationConfig(n_receivers=n_receivers, seed=seed))
        result = simulator.simulate_task(task, general_web_population())
        assert result.n_receivers == n_receivers
        assert 0.0 <= result.protection_rate() <= 1.0
        assert result.heed_rate() <= result.protection_rate() + 1e-9
        counts = result.outcome_counts()
        assert sum(counts.values()) == n_receivers
        # Protected flag must agree with the outcome semantics.
        for record in result.records:
            assert record.protected == record.outcome.hazard_avoided

    @given(multiplier=st.floats(min_value=0.0, max_value=5.0, allow_nan=False), value=unit)
    @settings(max_examples=80, deadline=None)
    def test_calibration_output_is_valid_probability(self, multiplier, value):
        calibration = StageCalibration(intention_multiplier=multiplier)
        assert 0.0 < calibration.apply_intention(value) < 1.0
