"""Funnel metrics and habituation-weight provenance through the
experiment and IO layers (ISSUE 4).

A result row must carry the per-stage funnel as flat metrics, record the
outcome-coupled weights it ran with, survive a JSON round-trip with both
intact, and reproduce the run exactly from the loaded provenance alone.
"""

import pytest

from repro.core.stages import Stage
from repro.experiments import Experiment, SweepSpec, VariantSpec, reproduce_row
from repro.io.experiments_io import (
    load_resultset,
    loads_resultset,
    dumps_resultset,
    save_resultset,
)

SEED = 20260726


def _experiment(**knobs) -> Experiment:
    """One ie_passive variant with engine ``knobs`` bound as parameters."""
    params = {"variant": "ie_passive", **knobs}
    return Experiment(
        name="funnel-provenance",
        variants=(VariantSpec(scenario="antiphishing", params=params),),
        n_receivers=300,
        seed=SEED,
    )


class TestFunnelMetricsInRows:
    def test_rows_carry_funnel_metrics(self):
        row = _experiment().run().rows[0]
        attention = Stage.ATTENTION_SWITCH.value
        assert f"funnel:{attention}:survival_rate" in row.metrics
        assert f"funnel:{attention}:conditional_failure" in row.metrics
        assert "funnel:intention:survival_rate" in row.metrics
        assert "funnel:behavior:survival_rate" in row.metrics
        # Survival through the last checkpoint is the heed rate.
        assert row.metrics["funnel:behavior:survival_rate"] == pytest.approx(
            row.metrics["heed_rate"]
        )

    def test_trace_off_rows_have_no_funnel_metrics(self):
        row = _experiment(trace=False).run().rows[0]
        assert not any(name.startswith("funnel:") for name in row.metrics)

    def test_funnel_survival_is_monotone_in_rows(self):
        row = _experiment().run().rows[0]
        survival = [
            value
            for name, value in row.metrics.items()
            if name.startswith("funnel:") and name.endswith(":survival_rate")
        ]
        assert survival == sorted(survival, reverse=True)


class TestWeightProvenance:
    def test_experiment_level_weights_recorded(self):
        results = _experiment(rounds=3, dismiss_weight=2.0, heed_weight=0.5).run()
        row = results.rows[0]
        assert row.dismiss_weight == 2.0
        assert row.heed_weight == 0.5
        assert row.rounds == 3

    def test_single_shot_rows_record_unit_weights(self):
        row = _experiment().run().rows[0]
        assert row.dismiss_weight == 1.0
        assert row.heed_weight == 1.0

    def test_bad_engine_knobs_rejected(self):
        from repro.core.exceptions import ModelError

        for bad in ({"heed_weight": -1.0}, {"dismiss_weight": -0.5},
                    {"rounds": 0}, {"recovery_rate": 1.5}):
            with pytest.raises(ModelError):
                SweepSpec(scenario="antiphishing", grid={"variant": ["ie_passive"]},
                          base=bad)

    def test_json_round_trip_preserves_funnel_and_weights(self, tmp_path):
        results = _experiment(rounds=2, dismiss_weight=2.0, heed_weight=0.5).run()
        path = tmp_path / "funnel.json"
        save_resultset(results, str(path))
        loaded = load_resultset(str(path))
        original = results.rows[0]
        restored = loaded.rows[0]
        assert restored.dismiss_weight == 2.0
        assert restored.heed_weight == 0.5
        assert dict(restored.metrics) == dict(original.metrics)
        funnel_keys = [k for k in restored.metrics if k.startswith("funnel:")]
        assert funnel_keys

    def test_reproduce_row_from_loaded_provenance(self):
        results = _experiment(rounds=2, dismiss_weight=2.0, heed_weight=0.5).run()
        loaded = loads_resultset(dumps_resultset(results))
        rerun = reproduce_row(loaded.rows[0])
        assert rerun.dismiss_weight == 2.0
        assert rerun.heed_weight == 0.5
        assert {
            name: rerun.summary()[name] for name in rerun.summary()
        } == {name: loaded.rows[0].metrics[name] for name in rerun.summary()}
        assert rerun.funnel.summary() == {
            name: value
            for name, value in loaded.rows[0].metrics.items()
            if name.startswith("funnel:")
        }

    def test_weights_swept_on_grid_round_trip(self, tmp_path):
        sweep = SweepSpec(
            scenario="antiphishing",
            grid={"dismiss_weight": [0.5, 2.0]},
            base={"variant": "ie_passive", "rounds": 3},
        )
        results = Experiment.from_sweep(
            "weights-grid", sweep, n_receivers=200, seed=SEED
        ).run()
        path = tmp_path / "grid.json"
        save_resultset(results, str(path))
        loaded = load_resultset(str(path))
        weights = {row.variant: row.dismiss_weight for row in loaded.rows}
        assert weights == {"dismiss_weight=0.5": 0.5, "dismiss_weight=2.0": 2.0}
        for row in loaded.rows:
            assert row.params["dismiss_weight"] == row.dismiss_weight
