"""Tests for the scenario registry unifying the modeled systems."""

import pytest

from repro.core.analysis import SystemAnalysis
from repro.core.exceptions import ModelError
from repro.simulation.calibration import StageCalibration
from repro.simulation.metrics import SimulationResult
from repro.simulation.population import PopulationSpec, general_web_population
from repro.experiments import Experiment, VariantSpec, plan_runs, reproduce_row
from repro.experiments.runner import resolved_task_name, run_variant
from repro.systems import (
    Scenario,
    ScenarioVariant,
    all_scenarios,
    available_scenarios,
    available_systems,
    get_scenario,
    register_scenario,
)
from repro.systems.scenario import _SCENARIOS


class TestRegistry:
    def test_every_system_has_a_scenario(self):
        assert available_scenarios() == available_systems()

    def test_get_scenario_unknown_name(self):
        with pytest.raises(ModelError):
            get_scenario("does-not-exist")

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("antiphishing")
        with pytest.raises(ModelError):
            register_scenario(scenario)

    def test_registered_objects_satisfy_protocol(self):
        for scenario in all_scenarios().values():
            assert isinstance(scenario, Scenario)

    def test_only_scenarios_register(self):
        with pytest.raises(ModelError, match="is not a Scenario"):
            register_scenario(get_scenario("antiphishing").bind())
        assert "antiphishing" in _SCENARIOS

    def test_custom_scenario_roundtrip(self, warning_task):
        from repro.core.task import SecureSystem

        scenario = Scenario(
            name="test-custom-scenario",
            description="custom",
            system_factory=lambda: SecureSystem(
                name="custom-system", tasks=[warning_task]
            ),
            population_factory=general_web_population,
        )
        register_scenario(scenario)
        try:
            assert get_scenario("test-custom-scenario") is scenario
            result = scenario.simulate(100, seed=3)
            assert result.n_receivers == 100
        finally:
            _SCENARIOS.pop("test-custom-scenario")


class TestScenarioComponents:
    def test_components_have_expected_types(self):
        for scenario in all_scenarios().values():
            assert isinstance(scenario.population(), PopulationSpec)
            assert isinstance(scenario.calibration(), StageCalibration)
            assert scenario.tasks(), scenario.name

    def test_calibrations_anchor_case_studies(self):
        assert get_scenario("antiphishing").calibration().label != "neutral"
        assert get_scenario("smartcard").calibration().label == "neutral"

    def test_default_task_is_first_critical(self):
        scenario = get_scenario("antiphishing")
        assert scenario.task().name == scenario.tasks()[0].name

    def test_task_lookup_by_name(self):
        scenario = get_scenario("antiphishing")
        named = scenario.task("heed-ie_passive-warning")
        assert named.name == "heed-ie_passive-warning"


class TestScenarioPaths:
    """Any scenario drops into either the analytic or the simulated path."""

    @pytest.mark.parametrize("name", ["antiphishing", "passwords", "ssl-indicator"])
    def test_analytic_path(self, name):
        analysis = get_scenario(name).analyze()
        assert isinstance(analysis, SystemAnalysis)
        assert analysis.task_analyses

    @pytest.mark.parametrize("name", ["antiphishing", "ssl-indicator", "smartcard"])
    def test_simulated_path(self, name):
        result = get_scenario(name).simulate(200, seed=11)
        assert isinstance(result, SimulationResult)
        assert result.n_receivers == 200
        assert 0.0 <= result.protection_rate() <= 1.0

    def test_simulated_modes_agree(self):
        scenario = get_scenario("antiphishing")
        batch = scenario.simulate(300, seed=5, mode="batch")
        reference = scenario.simulate(300, seed=5, mode="reference")
        assert batch.stage_failure_counts() == reference.stage_failure_counts()
        assert batch.protection_rate() == reference.protection_rate()

    def test_simulate_respects_config_overrides(self):
        scenario = get_scenario("antiphishing")
        result = scenario.simulate(
            150, seed=2, calibration=StageCalibration(label="override")
        )
        assert result.calibration_label == "override"


class TestParameterizedScenarios:
    """Scenarios accept typed parameter overrides via bind()."""

    def test_bind_without_overrides_matches_base_components(self):
        scenario = get_scenario("passwords")
        variant = scenario.bind()
        assert variant.params == {}
        assert variant.name == "passwords"
        assert [task.name for task in variant.tasks()] == [
            task.name for task in scenario.tasks()
        ]
        assert variant.calibration().label == scenario.calibration().label
        assert (
            variant.population().training_fraction
            == scenario.population().training_fraction
        )

    def test_bind_validates_types_and_names(self):
        scenario = get_scenario("passwords")
        with pytest.raises(ModelError):
            scenario.bind(not_a_parameter=1)
        with pytest.raises(ModelError):
            scenario.bind(distinct_accounts=-3)
        with pytest.raises(ModelError):
            scenario.bind(single_sign_on="yes")

    def test_custom_parameters_flow_into_the_policy(self):
        variant = get_scenario("passwords").bind(distinct_accounts=16, expiry_days=None)
        assert variant.params == {"distinct_accounts": 16, "expiry_days": None}
        recall = variant.task("recall-passwords")
        baseline_recall = get_scenario("passwords").bind().task("recall-passwords")
        # More accounts without expiry still demands more memory than baseline.
        assert (
            recall.capability_requirements.memory_capacity
            > baseline_recall.capability_requirements.memory_capacity
        )

    def test_common_parameters_apply_to_any_scenario(self):
        variant = get_scenario("smartcard").bind(
            training_fraction=0.75, user_noise_std=0.0, intention_multiplier=1.5
        )
        assert variant.population().training_fraction == 0.75
        assert variant.calibration().user_noise_std == 0.0
        assert variant.calibration().intention_multiplier == 1.5

    def test_antiphishing_variant_and_activeness(self):
        variant = get_scenario("antiphishing").bind(variant="ie_passive", activeness=0.9)
        task = variant.task()
        assert task.name == "heed-ie_passive-warning"
        assert task.communication.activeness == 0.9

    def test_task_prefix_match_is_unique_or_fails(self):
        variant = get_scenario("passwords").bind(password_vault=True)
        assert variant.task("recall-passwords").name.startswith("recall-passwords[")
        with pytest.raises(ModelError):
            variant.task("re")  # matches recall- and refrain-
        with pytest.raises(ModelError):
            variant.task("no-such-task")

    def test_rebinding_layers_overrides(self):
        variant = get_scenario("passwords").bind(single_sign_on=True)
        layered = variant.bind(training_fraction=0.9)
        assert layered.params == {"single_sign_on": True, "training_fraction": 0.9}
        assert layered.population().training_fraction == 0.9

    def test_variant_satisfies_scenario_protocol(self):
        scenario = get_scenario("antiphishing")
        variant = scenario.bind(activeness=0.5)
        assert isinstance(variant, ScenarioVariant)
        assert variant.base is scenario

    def test_bound_variant_batch_reference_equivalence(self):
        """Parameterized variants keep the exact batch/reference agreement."""
        for overrides in (
            {"single_sign_on": True},
            {"distinct_accounts": 16, "training_fraction": 0.8},
        ):
            variant = get_scenario("passwords").bind(**overrides)
            batch = variant.simulate(300, seed=5, task="recall-passwords", mode="batch")
            reference = variant.simulate(
                300, seed=5, task="recall-passwords", mode="reference"
            )
            assert batch.stage_failure_counts() == reference.stage_failure_counts()
            assert batch.outcome_counts() == reference.outcome_counts()
            assert batch.protection_rate() == reference.protection_rate()
            assert batch.capability_failure_rate() == reference.capability_failure_rate()

    def test_inapplicable_knobs_rejected_at_bind_time(self):
        scenario = get_scenario("antiphishing")
        # The no-warning baseline has no communication to modulate.
        with pytest.raises(ModelError):
            scenario.bind(variant="no_warning", activeness=0.9)
        with pytest.raises(ModelError):
            scenario.bind(variant="no_warning", prior_exposures=30)
        bare = scenario.bind(variant="no_warning")
        assert bare.task().communication is None


class TestOneBuildPerBind:
    """A bound variant builds its system once, in ``bind``; every reading
    path (analytic walk, task lookup, simulation, reproduction) reuses it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.systems import passwords

        calls = []
        original = passwords.build_system_for

        def spy(policy):
            calls.append(policy.name)
            return original(policy)

        monkeypatch.setattr(passwords, "build_system_for", spy)
        return calls

    @staticmethod
    def _run(paths):
        experiment = Experiment(
            name="one-build",
            variants=(VariantSpec("passwords", {"single_sign_on": True}),),
            n_receivers=100,
            seed=4,
            paths=paths,
            task="recall-passwords",
        )
        (run,) = plan_runs(experiment)
        return run

    def test_bind_then_simulate_builds_once(self, builds):
        get_scenario("passwords").bind(single_sign_on=True).simulate(100, seed=1)
        assert len(builds) == 1

    def test_every_reading_of_one_variant_shares_the_build(self, builds):
        variant = get_scenario("passwords").bind(single_sign_on=True)
        assert variant.system() is variant.system()
        assert variant.task("recall-passwords") in variant.system().tasks
        assert variant.components().population is variant.population()
        variant.analyze()
        variant.tasks()
        variant.simulate(100, seed=1, task="recall-passwords")
        variant.simulate(100, seed=2, mode="reference")
        assert len(builds) == 1

    def test_run_variant_with_both_paths_builds_once(self, builds):
        rows = run_variant(self._run(("analyze", "simulate")))
        assert [row.mode for row in rows] == ["analytic", "batch"]
        assert len(builds) == 1

    def test_resolved_task_name_builds_once(self, builds):
        name = resolved_task_name(self._run(("simulate",)))
        assert name.startswith("recall-passwords[")
        assert len(builds) == 1

    def test_reproduce_row_builds_once(self, builds):
        (row,) = run_variant(self._run(("simulate",)))
        builds.clear()
        summary = reproduce_row(row).summary()
        assert len(builds) == 1
        assert summary == {name: row.metrics[name] for name in summary}

    def test_registered_scenario_builds_afresh(self, builds):
        scenario = get_scenario("passwords")
        assert scenario.system() is not scenario.system()
        assert len(builds) == 2
