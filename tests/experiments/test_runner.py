"""Tests for experiment execution: serial, parallel, and both paths."""

import pytest

from repro.experiments import (
    WALL_CLOCK_METRICS,
    Experiment,
    SweepSpec,
    VariantSpec,
    plan_runs,
    reproduce_row,
)
def _without_wall_clock(metrics):
    """Row metrics modulo wall-clock telemetry (never deterministic)."""
    return {
        name: value
        for name, value in metrics.items()
        if name not in WALL_CLOCK_METRICS
    }


def _canonical(resultset):
    # Bit-identity modulo wall-clock telemetry: one canonical filter.
    return resultset.canonical_dict()

VARIANTS = (
    VariantSpec("passwords", {}, label="baseline"),
    VariantSpec("passwords", {"single_sign_on": True}, label="sso"),
)


def _experiment(**overrides) -> Experiment:
    settings = dict(
        name="runner-test",
        variants=VARIANTS,
        n_receivers=200,
        seed=9,
        task="recall-passwords",
    )
    settings.update(overrides)
    return Experiment(**settings)


class TestPlanning:
    def test_one_run_per_variant_with_derived_seeds(self):
        experiment = _experiment()
        runs = plan_runs(experiment)
        assert [run.label for run in runs] == ["baseline", "sso"]
        assert [run.seed for run in runs] == [
            experiment.variant_seed(0),
            experiment.variant_seed(1),
        ]
        assert all(run.n_receivers == 200 for run in runs)


class TestExecution:
    def test_simulated_rows_carry_full_provenance(self):
        results = _experiment().run()
        assert len(results) == 2
        for row in results:
            assert row.experiment == "runner-test"
            assert row.scenario == "passwords"
            assert row.mode == "batch"
            assert row.seed is not None
            assert row.n_receivers == 200
            assert row.batch_size is not None
            assert row.task.startswith("recall-passwords")
            assert row.population == "organization"
            assert 0.0 <= row.metric("protection_rate") <= 1.0

    def test_variant_effect_visible(self):
        results = _experiment(seed_strategy="shared").run()
        assert results.row("sso").metric("protection_rate") > results.row(
            "baseline"
        ).metric("protection_rate")

    def test_both_paths_produce_two_rows_per_variant(self):
        results = _experiment(paths=("analyze", "simulate")).run()
        assert len(results) == 4
        analytic = results.row("baseline", mode="analytic")
        assert 0.0 <= analytic.metric("success_probability") <= 1.0
        assert analytic.seed is None
        assert results.row("baseline", mode="batch").seed is not None

    def test_reference_mode_matches_batch(self):
        batch = _experiment().run()
        reference = _experiment(mode="reference").run()
        for label in ("baseline", "sso"):
            assert _without_wall_clock(batch.row(label).metrics) == _without_wall_clock(
                reference.row(label).metrics
            )

    def test_parallel_identical_to_serial(self):
        from repro.experiments import ProcessBackend

        experiment = _experiment()
        serial = experiment.run()
        parallel = experiment.run(backend=ProcessBackend())
        assert _canonical(parallel) == _canonical(serial)

    def test_rows_reproduce_exactly(self):
        results = _experiment().run()
        for row in results:
            rerun = reproduce_row(row)
            assert rerun.seed == row.seed
            assert rerun.mode == row.mode
            assert rerun.batch_size == row.batch_size
            assert {
                name: rerun.summary()[name] for name in rerun.summary()
            } == {name: row.metrics[name] for name in rerun.summary()}


class TestSweepThroughRunner:
    def test_grid_of_twelve_runs_without_hand_wiring(self):
        sweep = SweepSpec(
            scenario="passwords",
            grid={
                "distinct_accounts": [4, 8, 16],
                "expiry_days": [None, 90],
                "single_sign_on": [False, True],
            },
        )
        experiment = Experiment.from_sweep(
            "password-grid", sweep, n_receivers=100, seed=3, task="recall-passwords"
        )
        results = experiment.run()
        assert len(results) == 12
        # Per-variant streams: every row carries its own derived seed.
        seeds = [row.seed for row in results]
        assert len(set(seeds)) == 12
        # Params provenance matches the declared grid point.
        for row in results:
            assert set(row.params) == {
                "distinct_accounts",
                "expiry_days",
                "single_sign_on",
            }
