"""Tests for the human-receiver simulation engine."""

import pytest

from repro.core.behavior import BehaviorOutcome
from repro.core.communication import Communication, CommunicationType
from repro.core.exceptions import SimulationError
from repro.core.stages import Stage
from repro.core.task import HumanSecurityTask
from repro.simulation.attacker import spoofing_attacker
from repro.simulation.calibration import StageCalibration
from repro.simulation.engine import HumanLoopSimulator, SimulationConfig
from repro.simulation.population import general_web_population


@pytest.fixture
def simulator() -> HumanLoopSimulator:
    return HumanLoopSimulator(SimulationConfig(n_receivers=200, seed=11))


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.n_receivers == 500
        assert config.attacker is None

    def test_validation(self):
        with pytest.raises(SimulationError):
            SimulationConfig(n_receivers=-1)
        with pytest.raises(SimulationError):
            SimulationConfig(seed=-2)


class TestSimulateTask:
    def test_result_size_and_determinism(self, simulator, warning_task):
        population = general_web_population()
        first = simulator.simulate_task(warning_task, population)
        second = simulator.simulate_task(warning_task, population)
        assert first.n_receivers == 200
        assert first.protection_rate() == second.protection_rate()
        assert [record.outcome for record in first.records] == [
            record.outcome for record in second.records
        ]

    def test_different_seeds_differ(self, warning_task):
        population = general_web_population()
        a = HumanLoopSimulator(SimulationConfig(n_receivers=200, seed=1)).simulate_task(
            warning_task, population
        )
        b = HumanLoopSimulator(SimulationConfig(n_receivers=200, seed=2)).simulate_task(
            warning_task, population
        )
        assert [r.outcome for r in a.records] != [r.outcome for r in b.records]

    def test_blocking_warning_mostly_protects(self, simulator, warning_task):
        # A statistical property, not a pinned stream: the true rate is
        # ~0.53, so use enough receivers to stay clear of sampling noise.
        result = simulator.simulate_task(
            warning_task, general_web_population(), n_receivers=1_000
        )
        assert result.protection_rate() > 0.5

    def test_passive_indicator_rarely_protects(self, simulator, passive_indicator,
                                               busy_environment):
        task = HumanSecurityTask(
            name="notice-passive",
            communication=passive_indicator,
            environment=busy_environment,
            desired_action="react",
        )
        result = simulator.simulate_task(task, general_web_population())
        assert result.protection_rate() < 0.4
        assert result.notice_rate() < 0.6

    def test_no_communication_mostly_unprotected(self, simulator):
        task = HumanSecurityTask(name="silent", desired_action="act")
        result = simulator.simulate_task(task, general_web_population())
        assert result.protection_rate() < 0.15
        outcomes = result.outcome_counts()
        assert outcomes[BehaviorOutcome.NO_ACTION] > 0

    def test_capability_gap_shows_up_as_capability_failures(self, simulator, blocking_warning):
        from repro.core.receiver import Capabilities

        demanding_task = HumanSecurityTask(
            name="remember-everything",
            communication=blocking_warning,
            capability_requirements=Capabilities(
                knowledge_to_act=0.2,
                cognitive_skill=0.2,
                physical_skill=0.1,
                memory_capacity=0.9,
                has_required_software=False,
                has_required_device=False,
            ),
            desired_action="recall all secrets",
        )
        easy_task = HumanSecurityTask(
            name="remember-nothing",
            communication=blocking_warning,
            desired_action="just click",
        )
        population = general_web_population()
        demanding = simulator.simulate_task(demanding_task, population)
        easy = simulator.simulate_task(easy_task, population)
        assert demanding.capability_failure_rate() > 0.05
        assert demanding.capability_failure_rate() > easy.capability_failure_rate() + 0.03
        # With a blocking communication, capability failures fail safe, so
        # the correct-completion (heed) rate is what suffers.
        assert demanding.heed_rate() < easy.heed_rate()

    def test_n_receivers_override(self, simulator, warning_task):
        result = simulator.simulate_task(warning_task, general_web_population(), n_receivers=10)
        assert result.n_receivers == 10

    def test_negative_override_rejected(self, simulator, warning_task):
        with pytest.raises(SimulationError):
            simulator.simulate_task(warning_task, general_web_population(), n_receivers=-5)

    def test_spoofing_attacker_reduces_protection(self, warning_task):
        population = general_web_population()
        clean = HumanLoopSimulator(SimulationConfig(n_receivers=300, seed=3)).simulate_task(
            warning_task, population
        )
        attacked = HumanLoopSimulator(
            SimulationConfig(n_receivers=300, seed=3, attacker=spoofing_attacker(0.6))
        ).simulate_task(warning_task, population)
        assert attacked.protection_rate() < clean.protection_rate() - 0.2
        assert attacked.spoofed_rate() > 0.4

    def test_calibration_changes_results(self, warning_task):
        population = general_web_population()
        neutral = HumanLoopSimulator(SimulationConfig(n_receivers=300, seed=5)).simulate_task(
            warning_task, population
        )
        boosted = HumanLoopSimulator(
            SimulationConfig(
                n_receivers=300,
                seed=5,
                calibration=StageCalibration(intention_multiplier=2.5, label="boosted"),
            )
        ).simulate_task(warning_task, population)
        assert boosted.heed_rate() > neutral.heed_rate()
        assert boosted.calibration_label == "boosted"

    def test_retention_stages_skipped_for_warnings(self, simulator, warning_task):
        result = simulator.simulate_task(warning_task, general_web_population(), n_receivers=50)
        for record in result.records:
            assert Stage.KNOWLEDGE_RETENTION in record.trace.skipped
            assert record.trace.outcome_for(Stage.KNOWLEDGE_RETENTION) is None

    def test_policy_communication_exercises_retention(self, simulator):
        policy_task = HumanSecurityTask(
            name="follow-policy",
            communication=Communication(
                name="policy", comm_type=CommunicationType.POLICY, activeness=0.5, clarity=0.8,
                includes_instructions=True,
            ),
            desired_action="comply",
        )
        result = simulator.simulate_task(policy_task, general_web_population(), n_receivers=200)
        evaluated_retention = any(
            record.trace.outcome_for(Stage.KNOWLEDGE_RETENTION) is not None
            for record in result.records
        )
        assert evaluated_retention


class TestDrawPathLookups:
    """The engine draws through ``batch.draw_batch_counter`` and
    ``batch.redraw_decisions_counter``, looked up on the module at call
    time, in every rng mode.  Wrappers patched onto those names (span
    recorders, for one) therefore see every chunk and every round."""

    @pytest.mark.parametrize("rng_mode", ["counter", "matrix"])
    def test_each_chunk_and_round_draws_through_the_module_names(
        self, warning_task, monkeypatch, rng_mode
    ):
        from repro.simulation import batch as batch_module

        calls = {}

        def spy(name, cell_position):
            real = getattr(batch_module, name)
            calls[name] = []

            def wrapper(*args, **kwargs):
                cell = args[cell_position]
                calls[name].append((cell.chunk, cell.round_index))
                return real(*args, **kwargs)

            monkeypatch.setattr(batch_module, name, wrapper)

        spy("draw_batch_counter", 3)
        spy("redraw_decisions_counter", 2)
        simulator = HumanLoopSimulator(SimulationConfig(batch_size=400))
        simulator.simulate_task(
            warning_task,
            general_web_population(),
            n_receivers=1003,
            rounds=3,
            rng_mode=rng_mode,
        )
        assert calls["draw_batch_counter"] == [(0, 0), (1, 0), (2, 0)]
        # Round 0 redraws inside draw_batch_counter; rounds 1 and 2 come
        # straight from the engine, once per chunk.
        assert calls["redraw_decisions_counter"] == [
            (chunk, round_index) for chunk in range(3) for round_index in range(3)
        ]
