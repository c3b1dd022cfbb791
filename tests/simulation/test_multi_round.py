"""Tests for the multi-round simulation subsystem.

Pins the three invariants ISSUE 3 requires:

* ``rounds=1`` is bit-identical to the single-shot engine (and round 0 of
  any multi-round run consumes the identical draw stream),
* batch/reference equivalence holds *per round* for ``rounds > 1``, and
* the per-receiver exposure state evolves exactly as the scalar
  :class:`~repro.simulation.habituation.HabituationState` prescribes.
"""

import numpy as np
import pytest

from repro.core import receiver as receiver_model
from repro.core.exceptions import SimulationError
from repro.core.pipeline import PipelinePlan
from repro.simulation.calibration import StageCalibration
from repro.simulation.engine import HumanLoopSimulator, SimulationConfig
from repro.simulation.habituation import HabituationState, advance_exposures, initial_exposures
from repro.simulation.population import general_web_population
from repro.systems import get_scenario
from repro.systems.antiphishing import ie_passive_warning
from repro.systems.scenario import all_scenarios

N = 400
SEED = 20260726


def _simulator(**overrides) -> HumanLoopSimulator:
    overrides.setdefault("n_receivers", N)
    overrides.setdefault("seed", SEED)
    return HumanLoopSimulator(SimulationConfig(**overrides))


class TestConfigValidation:
    def test_rounds_and_recovery_bounds(self):
        with pytest.raises(SimulationError):
            SimulationConfig(rounds=0)
        with pytest.raises(SimulationError):
            SimulationConfig(recovery_rate=1.5)
        with pytest.raises(SimulationError):
            SimulationConfig(recovery_rate=-0.1)

    def test_per_call_overrides_validated(self, warning_task):
        simulator = _simulator()
        population = general_web_population()
        with pytest.raises(SimulationError):
            simulator.simulate_task(warning_task, population, rounds=0)
        with pytest.raises(SimulationError):
            simulator.simulate_task(warning_task, population, recovery_rate=2.0)


class TestSingleRoundIdentity:
    """rounds=1 must reproduce the single-shot engine bit for bit."""

    def test_rounds_one_matches_default(self, warning_task):
        population = general_web_population()
        single = _simulator().simulate_task(warning_task, population)
        explicit = _simulator().simulate_task(warning_task, population, rounds=1)
        assert single.outcome_counts() == explicit.outcome_counts()
        assert single.stage_failure_counts() == explicit.stage_failure_counts()
        assert [r.outcome for r in single.records] == [r.outcome for r in explicit.records]
        assert explicit.rounds == 1
        assert len(explicit.round_tallies) == 1
        assert explicit.round_tallies[0].outcome_counts() == single.outcome_counts()

    def test_round_zero_of_multi_round_matches_single_shot(self, warning_task):
        # The multi-round loop must consume the identical round-0 draw
        # stream, chunk by chunk, that a single-shot run does.
        population = general_web_population()
        single = _simulator(batch_size=128).simulate_task(warning_task, population)
        multi = _simulator(batch_size=128).simulate_task(
            warning_task, population, rounds=4, recovery_rate=0.2
        )
        assert multi.round_tallies[0].outcome_counts() == single.outcome_counts()
        assert (
            multi.round_tallies[0].stage_failure_counts()
            == single.stage_failure_counts()
        )

    def test_recovery_rate_is_irrelevant_for_one_round(self, warning_task):
        population = general_web_population()
        a = _simulator().simulate_task(warning_task, population, rounds=1, recovery_rate=0.0)
        b = _simulator().simulate_task(warning_task, population, rounds=1, recovery_rate=0.9)
        assert a.outcome_counts() == b.outcome_counts()


class TestPerRoundEquivalence:
    """Batch and reference modes must agree round by round, exactly.

    Batch mode reads each chunk's round-invariant stage terms, computed
    once; reference mode recomputes every term per row and per round, so
    it is the oracle that pins that hoist.
    """

    @pytest.mark.parametrize(
        "recovery_rate, every_scenario",
        [
            pytest.param(0.0, False, id="0.0"),
            pytest.param(0.25, False, id="0.25"),
            # Each registered scenario's calibrated default task, with
            # non-unit habituation weights; passwords (a policy) and
            # email-attachments (training) exercise retention and transfer.
            pytest.param(0.25, True, id="every-scenario"),
        ],
    )
    def test_batch_matches_reference_per_round(
        self, warning_task, recovery_rate, every_scenario
    ):
        common = dict(rounds=3, recovery_rate=recovery_rate)
        if every_scenario:
            common.update(dismiss_weight=1.5, heed_weight=0.5)
            cases = [
                (scenario.task(), scenario.population(), scenario.calibration())
                for scenario in all_scenarios().values()
            ]
        else:
            cases = [(warning_task, general_web_population(), StageCalibration.neutral())]
        funnel_labels = set()
        for task, population, calibration in cases:
            simulator = _simulator(batch_size=150, calibration=calibration)
            batch = simulator.simulate_task(task, population, mode="batch", **common)
            reference = simulator.simulate_task(
                task, population, mode="reference", **common
            )
            assert len(batch.round_tallies) == len(reference.round_tallies) == 3
            for batch_round, reference_round in zip(
                batch.round_tallies, reference.round_tallies
            ):
                assert batch_round.outcome_counts() == reference_round.outcome_counts()
                assert (
                    batch_round.stage_failure_counts()
                    == reference_round.stage_failure_counts()
                )
                assert batch_round.notice_rate() == reference_round.notice_rate()
                assert batch_round.protection_rate() == reference_round.protection_rate()
            # Per-record agreement — round index, and every stage
            # probability in the traces — bit for bit.
            assert len(batch.records) == len(reference.records) == N * 3
            assert list(batch.records) == list(reference.records)
            funnel_labels.update(batch.funnel.labels)
        if every_scenario:
            assert {"knowledge_retention", "knowledge_transfer"} <= funnel_labels

    def test_round_invariant_terms_built_once_per_chunk(
        self, warning_task, monkeypatch
    ):
        built = []
        beliefs = []
        real_terms = PipelinePlan.receiver_terms
        real_belief = receiver_model.belief_score

        def counting_terms(plan, receivers):
            built.append(receivers.count)
            return real_terms(plan, receivers)

        def counting_belief(*args):
            beliefs.append(1)
            return real_belief(*args)

        monkeypatch.setattr(PipelinePlan, "receiver_terms", counting_terms)
        monkeypatch.setattr(receiver_model, "belief_score", counting_belief)
        result = _simulator(batch_size=150).simulate_task(
            warning_task, general_web_population(), rounds=10, recovery_rate=0.1
        )
        chunks = result.chunks
        assert chunks == 3  # 400 receivers in chunks of 150
        assert built == [150, 150, 100]
        assert len(beliefs) == chunks  # not chunks * rounds

    def test_passive_indicator_equivalence(self, busy_environment):
        from repro.core.task import HumanSecurityTask

        task = HumanSecurityTask(
            name="notice-passive",
            communication=ie_passive_warning(),
            environment=busy_environment,
            desired_action="react",
        )
        population = general_web_population()
        batch = _simulator().simulate_task(task, population, rounds=4, recovery_rate=0.1)
        reference = _simulator().simulate_task(
            task, population, rounds=4, recovery_rate=0.1, mode="reference"
        )
        for batch_round, reference_round in zip(batch.round_tallies, reference.round_tallies):
            assert batch_round.outcome_counts() == reference_round.outcome_counts()


class TestHabituationDynamics:
    def test_notice_rate_decays_over_rounds_for_passive(self):
        scenario = get_scenario("antiphishing")
        result = scenario.simulate(
            2_000, seed=SEED, task="heed-ie_passive-warning", rounds=8, recovery_rate=0.0
        )
        notice = result.round_metric("notice_rate")
        assert notice[-1] < notice[0]
        # Zero recovery means exposures only accumulate: the tail of the
        # decay curve must sit strictly below the head.
        assert max(notice[-2:]) < min(notice[:2])

    def test_recovery_slows_the_decay(self):
        scenario = get_scenario("antiphishing")
        worn = scenario.simulate(
            2_000, seed=SEED, task="heed-ie_passive-warning", rounds=10, recovery_rate=0.0
        )
        rested = scenario.simulate(
            2_000, seed=SEED, task="heed-ie_passive-warning", rounds=10, recovery_rate=0.8
        )
        assert rested.round_metric("notice_rate")[-1] > worn.round_metric("notice_rate")[-1]

    def test_exposure_trajectory_matches_scalar_state(self):
        # The vectorized advance must reproduce the scalar bookkeeping:
        # record one exposure, then recover through the gap.
        communication = ie_passive_warning().with_exposures(3)
        state = HabituationState(recovery_rate=0.3)
        exposures = initial_exposures(communication, count=5)
        assert exposures is not None and float(exposures[0]) == 3.0
        delivered = np.ones(5, dtype=bool)
        for _ in range(6):
            expected = state.exposure_count(communication)
            assert exposures[0] == pytest.approx(expected)
            state.record_exposure(communication)
            state.recover()
            exposures = advance_exposures(exposures, delivered, recovery_rate=0.3)

    def test_spoofed_receivers_do_not_accumulate_exposures(self):
        exposures = np.array([2.0, 2.0])
        delivered = np.array([True, False])
        advanced = advance_exposures(exposures, delivered, recovery_rate=0.5)
        assert advanced[0] == pytest.approx(1.5)  # (2 + 1) * 0.5
        assert advanced[1] == pytest.approx(1.0)  # (2 + 0) * 0.5

    def test_no_communication_task_supports_rounds(self):
        from repro.core.task import HumanSecurityTask

        task = HumanSecurityTask(name="silent", desired_action="act")
        result = _simulator().simulate_task(task, general_web_population(), rounds=3)
        assert result.rounds == 3
        assert result.tally.n == N * 3
        assert initial_exposures(None, 10) is None


class TestMultiRoundResultShape:
    def test_receiver_round_accounting(self, warning_task):
        result = _simulator().simulate_task(
            warning_task, general_web_population(), rounds=5
        )
        assert result.n_receivers == N
        assert result.receiver_rounds == N * 5
        assert sum(tally.n for tally in result.round_tallies) == N * 5
        summaries = result.round_summaries()
        assert [row["round"] for row in summaries] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_records_capped_by_receiver_rounds(self, warning_task):
        population = general_web_population()
        kept = _simulator(record_limit=N * 3).simulate_task(
            warning_task, population, rounds=3
        )
        assert len(kept.records) == N * 3
        assert len(kept.records_for_round(1)) == N
        dropped = _simulator(record_limit=N * 3).simulate_task(
            warning_task, population, rounds=4
        )
        assert dropped.records == []
        assert dropped.tally.n == N * 4

    def test_determinism(self, warning_task):
        population = general_web_population()
        first = _simulator().simulate_task(warning_task, population, rounds=4, recovery_rate=0.2)
        second = _simulator().simulate_task(warning_task, population, rounds=4, recovery_rate=0.2)
        assert first.outcome_counts() == second.outcome_counts()
        assert [t.outcome_counts() for t in first.round_tallies] == [
            t.outcome_counts() for t in second.round_tallies
        ]

    def test_rounds_differ_from_each_other(self, warning_task):
        # Fresh encounter randomness per round: realized outcomes must not
        # simply repeat round 0.
        result = _simulator().simulate_task(warning_task, general_web_population(), rounds=2)
        first = [r.outcome for r in result.records_for_round(0)]
        second = [r.outcome for r in result.records_for_round(1)]
        assert first != second


class TestScenarioAndExperimentIntegration:
    def test_bound_variant_runs_multi_round(self):
        variant = get_scenario("antiphishing").bind(
            variant="ie_passive", rounds=3, recovery_rate=0.5
        )
        assert variant.simulation_defaults() == {"rounds": 3, "recovery_rate": 0.5}
        result = variant.simulate(200, seed=SEED)
        assert result.rounds == 3
        assert result.recovery_rate == 0.5
        # Explicit overrides win over the bound knobs.
        assert variant.simulate(200, seed=SEED, rounds=1).rounds == 1

    def test_experiment_rounds_provenance_round_trips(self, tmp_path):
        from repro.experiments import Experiment, VariantSpec, reproduce_row
        from repro.io.experiments_io import load_resultset, save_resultset

        experiment = Experiment(
            name="habituation-rounds",
            variants=(VariantSpec(scenario="antiphishing", params={"variant": "ie_passive"}),),
            n_receivers=200,
            seed=SEED,
            rounds=3,
            recovery_rate=0.25,
        )
        results = experiment.run()
        row = results.rows[0]
        assert row.rounds == 3
        assert row.recovery_rate == 0.25
        assert "round2:notice_rate" in row.metrics

        path = tmp_path / "rounds.json"
        save_resultset(results, str(path))
        loaded = load_resultset(str(path))
        loaded_row = loaded.rows[0]
        assert loaded_row.rounds == 3
        assert loaded_row.recovery_rate == 0.25

        rerun = reproduce_row(loaded_row)
        assert rerun.rounds == 3
        assert rerun.round_metric("notice_rate") == [
            row.metrics[f"round{k}:notice_rate"] for k in range(3)
        ]

    def test_experiment_rounds_cannot_shadow_bound_or_swept_rounds(self):
        from repro.experiments import Experiment, SweepSpec, VariantSpec
        from repro.experiments.results import ExperimentError

        with pytest.raises(ExperimentError):
            Experiment.from_sweep(
                "clash",
                SweepSpec(scenario="antiphishing", grid={"rounds": [1, 4]}),
                n_receivers=100,
                rounds=2,
            )
        with pytest.raises(ExperimentError):
            Experiment(
                name="clash",
                variants=(VariantSpec(scenario="antiphishing", params={"recovery_rate": 0.5}),),
                recovery_rate=0.1,
            )

    def test_rounds_as_sweep_axis(self):
        from repro.experiments import Experiment, SweepSpec

        sweep = SweepSpec(
            scenario="antiphishing",
            grid={"rounds": [1, 4]},
            base={"variant": "ie_passive", "recovery_rate": 0.0},
        )
        results = Experiment.from_sweep(
            "rounds-axis", sweep, n_receivers=400, seed=SEED, seed_strategy="shared"
        ).run()
        by_variant = {row.variant: row for row in results.rows}
        assert by_variant["rounds=1"].rounds == 1
        assert by_variant["rounds=4"].rounds == 4
        # More encounters with no recovery erode the notice rate.
        assert (
            by_variant["rounds=4"].metrics["round3:notice_rate"]
            < by_variant["rounds=1"].metrics["notice_rate"]
        )
