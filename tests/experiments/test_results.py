"""Tests for the unified ResultSet: selection, export, recommendations."""

import json

import pytest

from repro.experiments import (
    Experiment,
    ExperimentError,
    ResultRow,
    ResultSet,
    VariantSpec,
    reproduce_row,
)
from repro.io import (
    load_resultset,
    loads_resultset,
    resultset_from_dict,
    resultset_to_dict,
    save_resultset,
)


@pytest.fixture(scope="module")
def results() -> ResultSet:
    experiment = Experiment(
        name="results-test",
        variants=(
            VariantSpec("passwords", {}, label="baseline"),
            VariantSpec("passwords", {"single_sign_on": True}, label="sso"),
        ),
        n_receivers=150,
        seed=21,
        task="recall-passwords",
        paths=("analyze", "simulate"),
    )
    return experiment.run()


class TestSelection:
    def test_labels_in_variant_order(self, results):
        assert results.labels() == ["baseline", "sso"]

    def test_simulated_and_analytic_split(self, results):
        assert len(results.simulated()) == 2
        assert len(results.analytic()) == 2
        assert all(row.mode == "analytic" for row in results.analytic())

    def test_row_requires_mode_when_ambiguous(self, results):
        with pytest.raises(ExperimentError):
            results.row("baseline")
        assert results.row("baseline", mode="batch").simulated

    def test_unknown_variant(self, results):
        with pytest.raises(ExperimentError):
            results.row("nope", mode="batch")

    def test_unknown_metric(self, results):
        with pytest.raises(ExperimentError):
            results.row("baseline", mode="batch").metric("nope")

    def test_metric_by_variant_defaults_to_simulated(self, results):
        rates = results.metric_by_variant("protection_rate")
        assert set(rates) == {"baseline", "sso"}

    def test_best(self, results):
        best = results.best("protection_rate", mode="batch")
        assert best.variant == "sso"
        worst = results.best("protection_rate", mode="batch", minimize=True)
        assert worst.variant == "baseline"


class TestRendering:
    def test_table_carries_params_and_metrics(self, results):
        table = results.simulated().table()
        assert table[1]["single_sign_on"] is True
        assert "protection_rate" in table[0]

    def test_markdown_selected_metrics(self, results):
        markdown = results.simulated().to_markdown(["protection_rate"])
        assert markdown.splitlines()[0] == "| variant | mode | protection_rate |"
        assert "sso" in markdown


class TestExport:
    def test_json_roundtrip_preserves_provenance(self, results, tmp_path):
        path = str(tmp_path / "results.json")
        save_resultset(results, path)
        reloaded = load_resultset(path)
        assert resultset_to_dict(reloaded) == resultset_to_dict(results)
        row = reloaded.row("sso", mode="batch")
        assert row.seed == results.row("sso", mode="batch").seed
        assert row.params == {"single_sign_on": True}
        assert row.batch_size is not None

    def test_save_method_matches_io_function(self, results, tmp_path):
        path = str(tmp_path / "via_method.json")
        results.save(path)
        assert resultset_to_dict(load_resultset(path)) == resultset_to_dict(results)

    def test_reloaded_row_reproduces_simulation(self, results, tmp_path):
        payload = json.dumps(resultset_to_dict(results))
        reloaded = loads_resultset(payload)
        row = reloaded.row("baseline", mode="batch")
        rerun = reproduce_row(row)
        assert rerun.protection_rate() == row.metric("protection_rate")

    def test_reproduce_rejects_analytic_rows(self, results):
        with pytest.raises(ExperimentError):
            reproduce_row(results.row("baseline", mode="analytic"))

    def test_from_dict_rejects_garbage(self):
        from repro.core.exceptions import SerializationError

        with pytest.raises(SerializationError):
            resultset_from_dict({"rows": []})
        with pytest.raises(SerializationError):
            loads_resultset("{not json")


class TestRecommendations:
    def test_per_variant_mitigation_ranking(self, results):
        recommendations = results.recommendations(domain="passwords")
        assert set(recommendations) == {"baseline", "sso"}
        for label, recs in recommendations.items():
            assert recs.tasks, label
            assert recs.summary_lines()

    def test_labels_filter_restricts_ranking(self, results):
        recommendations = results.recommendations(domain="passwords", labels=["sso"])
        assert set(recommendations) == {"sso"}
        with pytest.raises(ExperimentError):
            results.recommendations(labels=["nope"])

    def test_ranking_reflects_variant(self, results):
        """The baseline's recall task should be riskier than the SSO one."""
        from repro.systems import get_scenario

        recommendations = results.recommendations(domain="passwords")
        success = {}
        for label in ("baseline", "sso"):
            params = dict(results.row(label, mode="batch").params)
            recall = get_scenario("passwords").bind(**params).task("recall-passwords").name
            success[label] = recommendations[label].tasks[recall].success_probability
        assert success["sso"] > success["baseline"]


class TestCanonicalDict:
    def test_wall_clock_metrics_are_pinned(self):
        # The cluster scheduler, the benchmarks, and every bit-identity
        # test compare result sets modulo exactly these keys; adding or
        # renaming one silently weakens all of those comparisons, so the
        # tuple is pinned here: the call's wall clock plus one entry per
        # engine phase.
        from repro.experiments import WALL_CLOCK_METRICS
        from repro.experiments import results as results_module
        from repro.experiments import runner as runner_module
        from repro.simulation.metrics import ENGINE_PHASES

        assert WALL_CLOCK_METRICS == (
            "perf:elapsed_seconds",
            "perf:receiver_rounds_per_second",
            "perf:phase:simulation.traits_s",
            "perf:phase:simulation.encounter_s",
            "perf:phase:core.pipeline_s",
            "perf:phase:simulation.metrics_s",
            "perf:phase:simulation.habituation_s",
        )
        assert WALL_CLOCK_METRICS[2:] == tuple(
            f"perf:phase:{phase}_s" for phase in ENGINE_PHASES
        )
        # One canonical object, re-exported everywhere it is consumed.
        assert results_module.WALL_CLOCK_METRICS is WALL_CLOCK_METRICS
        assert runner_module.WALL_CLOCK_METRICS is WALL_CLOCK_METRICS

    def test_canonical_dict_strips_exactly_the_wall_clock_metrics(self, results):
        from repro.experiments import WALL_CLOCK_METRICS
        from repro.experiments.results import TELEMETRY_ROW_FIELDS

        full = resultset_to_dict(results)
        canonical = results.canonical_dict()
        for full_row, canonical_row in zip(full["rows"], canonical["rows"]):
            removed = set(full_row["metrics"]) - set(canonical_row["metrics"])
            assert removed == set(WALL_CLOCK_METRICS) & set(full_row["metrics"])
            kept = {
                name: value
                for name, value in full_row["metrics"].items()
                if name not in WALL_CLOCK_METRICS
            }
            assert canonical_row["metrics"] == kept
        # Nothing else differs: stripping those metrics and the telemetry
        # row fields is the whole transform.
        stripped = resultset_to_dict(results)
        for row in stripped["rows"]:
            for name in TELEMETRY_ROW_FIELDS:
                del row[name]
            row["metrics"] = {
                name: value
                for name, value in row["metrics"].items()
                if name not in WALL_CLOCK_METRICS
            }
        assert canonical == stripped

    def test_canonical_dict_does_not_mutate_the_set(self, results):
        from repro.experiments import WALL_CLOCK_METRICS

        results.canonical_dict()
        # Simulated rows still carry their wall-clock telemetry: the
        # canonical view is a copy, not an in-place strip.
        assert any(
            name in row.metrics
            for row in results.simulated()
            for name in WALL_CLOCK_METRICS
        )


class TestLegacyRngModeCompat:
    """Rows serialized before the counter default flip replay matrix bits.

    PR 9 changed ``SimulationConfig``'s default ``rng_mode`` to
    ``"counter"``.  Archived result sets must not silently change meaning:
    a PR-8-era row that recorded ``rng_mode="matrix"`` — and an even older
    row from before the field existed at all — must both reproduce the
    exact bits they were drawn with.
    """

    EXPECTED_KWARGS = dict(seed=17, mode="batch", rng_mode="matrix")

    def _matrix_expected(self):
        from repro.systems import get_scenario

        return get_scenario("antiphishing").bind().simulate(
            120, **self.EXPECTED_KWARGS
        )

    def _era_payload(self, expected, **tweaks):
        payload = {
            "experiment": "archived",
            "scenario": "antiphishing",
            "variant": "baseline",
            "params": {},
            "mode": "batch",
            "metrics": {"protection_rate": expected.protection_rate()},
            "seed": 17,
            "n_receivers": 120,
            "batch_size": expected.batch_size,
            "task": expected.task_name,
            "population": expected.population_name,
            "calibration_label": expected.calibration_label,
            "rounds": expected.rounds,
            "recovery_rate": expected.recovery_rate,
            "dismiss_weight": expected.dismiss_weight,
            "heed_weight": expected.heed_weight,
            "rng_mode": "matrix",
            "chunk_workers": 1,
            "variant_index": 0,
        }
        payload.update(tweaks)
        return {key: value for key, value in payload.items() if value is not ...}

    def _assert_bit_identical(self, rerun, expected):
        from repro.io import simulation_result_to_dict

        rerun_payload = simulation_result_to_dict(rerun)
        expected_payload = simulation_result_to_dict(expected)
        rerun_payload["provenance"].pop("elapsed_seconds")
        expected_payload["provenance"].pop("elapsed_seconds")
        assert rerun_payload == expected_payload

    def test_pr8_row_with_recorded_matrix_mode_reproduces(self):
        from repro.io import result_row_from_dict

        expected = self._matrix_expected()
        row = result_row_from_dict(self._era_payload(expected))
        rerun = reproduce_row(row)
        assert rerun.rng_mode == "matrix"
        self._assert_bit_identical(rerun, expected)

    def test_pre_rng_mode_row_pins_matrix(self):
        """A row with NO rng_mode key predates the field: it was drawn by
        the matrix source (the only one at the time), and reproduce_row
        must pin that rather than inherit today's counter default."""
        from repro.io import result_row_from_dict

        expected = self._matrix_expected()
        payload = self._era_payload(
            expected, rng_mode=..., chunk_workers=..., variant_index=...
        )
        assert "rng_mode" not in payload
        row = result_row_from_dict(payload)
        assert row.rng_mode is None
        rerun = reproduce_row(row)
        assert rerun.rng_mode == "matrix"
        self._assert_bit_identical(rerun, expected)

    def test_counter_row_reproduces_counter_bits(self):
        from repro.io import result_row_from_dict
        from repro.systems import get_scenario

        expected = get_scenario("antiphishing").bind().simulate(
            120, seed=17, mode="batch", rng_mode="counter"
        )
        payload = self._era_payload(expected, rng_mode="counter")
        rerun = reproduce_row(result_row_from_dict(payload))
        assert rerun.rng_mode == "counter"
        self._assert_bit_identical(rerun, expected)
