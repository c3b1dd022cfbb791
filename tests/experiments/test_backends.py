"""Tests for pluggable execution backends (ISSUE 5).

Shard determinism (sharded == serial bit for bit), merge semantics
(provenance validation, overlapping-shard clash rejection, canonical row
order), checkpoint/resume (no recomputation of finished rows), and
backend selection.
"""

import pytest

from repro.experiments import (
    Experiment,
    ExperimentError,
    ProcessBackend,
    ResultSet,
    SerialBackend,
    ShardBackend,
    SweepSpec,
    VariantSpec,
    reproduce_row,
    resolve_backend,
    shard_plans,
)
from repro.experiments import ShardProgress
from repro.experiments import backends as backends_module
from repro.io import load_checkpoint, shard_filename

SEED = 20260726


def canonical(resultset):
    """Result-set dict modulo wall-clock telemetry.

    All bit-identity assertions route through the one canonical filter
    (:meth:`ResultSet.canonical_dict`, built on ``WALL_CLOCK_METRICS``)
    rather than re-deriving which metrics are machine-time.
    """
    return resultset.canonical_dict()


def _experiment(n_receivers=80, **overrides) -> Experiment:
    sweep = SweepSpec(
        scenario="passwords",
        grid={"distinct_accounts": [4, 8, 12], "single_sign_on": [False, True]},
    )
    settings = dict(n_receivers=n_receivers, seed=SEED, task="recall-passwords")
    settings.update(overrides)
    return Experiment.from_sweep("backend-test", sweep, **settings)


@pytest.fixture(scope="module")
def experiment() -> Experiment:
    return _experiment()


@pytest.fixture(scope="module")
def serial(experiment) -> ResultSet:
    return experiment.run(backend=SerialBackend())


class TestBackendSelection:
    def test_default_run_is_serial(self, experiment, serial):
        assert canonical(experiment.run()) == canonical(serial)

    def test_process_backend_identical_to_serial(self, experiment, serial):
        parallel = experiment.run(backend=ProcessBackend(max_workers=2))
        assert canonical(parallel) == canonical(serial)

    def test_non_backend_rejected(self, experiment):
        with pytest.raises(ExperimentError):
            experiment.run(backend=object())

    def test_worker_count_is_not_a_backend(self, experiment):
        # The old run(max_workers) spelling is gone; an integer gets the
        # protocol error instead of a silent pool.
        with pytest.raises(ExperimentError, match="ExecutionBackend"):
            experiment.run(2)

    def test_backend_class_instead_of_instance_rejected(self, experiment):
        # runtime_checkable protocols pass classes on attribute presence;
        # the typo must get the clear contract error, not a TypeError.
        with pytest.raises(ExperimentError, match="instance"):
            experiment.run(backend=SerialBackend)

    def test_resolve_defaults_to_serial(self):
        assert isinstance(resolve_backend(), SerialBackend)

    def test_process_backend_validates_workers(self):
        with pytest.raises(ExperimentError):
            ProcessBackend(max_workers=0)


class TestShardPlans:
    def test_strided_disjoint_partition_covers_everything(self, experiment):
        plans = shard_plans(experiment, 4)
        indices = [[run.variant_index for run in plan.runs] for plan in plans]
        assert indices == [[0, 4], [1, 5], [2], [3]]
        flattened = sorted(index for shard in indices for index in shard)
        assert flattened == list(range(len(experiment.variants)))

    def test_shard_runs_keep_serial_seeds(self, experiment):
        for plan in shard_plans(experiment, 3):
            for run in plan.runs:
                assert run.seed == experiment.variant_seed(run.variant_index)

    def test_plan_header_carries_provenance(self, experiment):
        plan = shard_plans(experiment, 2)[1]
        header = plan.header()
        assert header["experiment"] == "backend-test"
        assert header["seed"] == SEED
        assert (header["shard_index"], header["shard_count"]) == (1, 2)
        assert header["n_variants"] == 6

    def test_invalid_shard_geometry_rejected(self, experiment):
        with pytest.raises(ExperimentError):
            shard_plans(experiment, 0)
        with pytest.raises(ExperimentError):
            ShardBackend(shard_index=2, shard_count=2)
        with pytest.raises(ExperimentError):
            ShardBackend(shard_index=-1, shard_count=2)


class TestShardDeterminism:
    def test_two_shards_merge_bit_identical_to_serial(self, experiment, serial):
        shards = [
            experiment.run(backend=ShardBackend(index, 2)) for index in range(2)
        ]
        merged = ResultSet.merge(*shards)
        assert canonical(merged) == canonical(serial)

    def test_uneven_shards_merge_bit_identical(self, experiment, serial):
        shards = [
            experiment.run(backend=ShardBackend(index, 4)) for index in range(4)
        ]
        assert [len(shard) for shard in shards] == [2, 2, 1, 1]
        merged = ResultSet.merge(*shards)
        assert canonical(merged) == canonical(serial)

    def test_both_paths_and_shared_seed_survive_sharding(self):
        experiment = _experiment(
            n_receivers=60, paths=("analyze", "simulate"), seed_strategy="shared"
        )
        serial = experiment.run()
        merged = ResultSet.merge(
            *(experiment.run(backend=ShardBackend(index, 3)) for index in range(3))
        )
        assert canonical(merged) == canonical(serial)

    def test_merged_rows_reproduce_exactly(self, experiment, serial):
        shards = [
            experiment.run(backend=ShardBackend(index, 2)) for index in range(2)
        ]
        merged = ResultSet.merge(*shards)
        row = merged.row("distinct_accounts=8,single_sign_on=True")
        rerun = reproduce_row(row)
        assert rerun.summary()["protection_rate"] == row.metric("protection_rate")
        # Identity-based lookup: the same row addressed by content hash.
        by_hash = merged.reproduce(row.variant_hash)
        assert by_hash.summary() == rerun.summary()


class TestMerge:
    def test_merge_requires_at_least_one_set(self):
        with pytest.raises(ExperimentError):
            ResultSet.merge()

    def test_merge_rejects_mixed_experiments(self, serial):
        other = ResultSet(experiment="someone-else", rows=list(serial.rows[:1]))
        with pytest.raises(ExperimentError, match="different experiments"):
            ResultSet.merge(serial, other)

    def test_overlapping_shards_clash(self, experiment):
        shard = experiment.run(backend=ShardBackend(0, 2))
        with pytest.raises(ExperimentError, match="overlapping"):
            ResultSet.merge(shard, shard)

    def test_partial_overlap_clashes_too(self, experiment):
        half = experiment.run(backend=ShardBackend(0, 2))
        third = experiment.run(backend=ShardBackend(0, 3))  # shares variant 0
        with pytest.raises(ExperimentError, match="overlapping"):
            ResultSet.merge(half, third)

    def test_merge_restores_declaration_order(self, experiment, serial):
        shards = [
            experiment.run(backend=ShardBackend(index, 2)) for index in range(2)
        ]
        # Feed the shards in reverse — canonical order must still win.
        merged = ResultSet.merge(*reversed(shards))
        assert [row.variant for row in merged] == [row.variant for row in serial]
        assert [row.variant_index for row in merged] == list(range(6))

    def test_single_set_roundtrip_is_identity(self, serial):
        merged = ResultSet.merge(serial)
        assert canonical(merged) == canonical(serial)

    def test_same_name_different_seed_rejected(self, experiment):
        # A re-run under a new seed keeps the name but must not merge with
        # the old shards, even though the row identities are disjoint.
        reseeded = _experiment(seed=SEED + 1)
        old = experiment.run(backend=ShardBackend(0, 2))
        new = reseeded.run(backend=ShardBackend(1, 2))
        with pytest.raises(ExperimentError, match="different experiment seeds"):
            ResultSet.merge(old, new)

    def test_mixed_n_receivers_rejected(self, experiment):
        small = _experiment(n_receivers=40)
        # Align the set-level seeds so the row-level check is what fires.
        a = experiment.run(backend=ShardBackend(0, 2))
        b = small.run(backend=ShardBackend(1, 2))
        with pytest.raises(ExperimentError, match="n_receivers"):
            ResultSet.merge(a, b)

    def test_legacy_rows_without_index_keep_relative_order(self):
        import dataclasses

        # Rows from pre-backend payloads carry no variant_index; merge must
        # preserve their original analytic/simulated interleaving.
        experiment = _experiment(n_receivers=40, paths=("analyze", "simulate"))
        legacy_rows = [
            dataclasses.replace(row, variant_index=None)
            for row in experiment.run().rows
        ]
        merged = ResultSet.merge(ResultSet("backend-test", legacy_rows))
        assert [row.row_key() for row in merged] == [
            row.row_key() for row in legacy_rows
        ]

    def test_merge_carries_the_experiment_seed(self, experiment, serial):
        merged = ResultSet.merge(
            *(experiment.run(backend=ShardBackend(index, 2)) for index in range(2))
        )
        assert merged.seed == SEED == serial.seed


def _counting_run_variant(monkeypatch):
    """Patch the backend layer's run_variant to count actual executions."""
    executed = []
    original = backends_module.run_variant

    def wrapper(run):
        executed.append(run.label)
        return original(run)

    monkeypatch.setattr(backends_module, "run_variant", wrapper)
    return executed


class TestCheckpointResume:
    def test_shard_checkpoints_and_skips_on_reinvocation(
        self, experiment, serial, tmp_path, monkeypatch
    ):
        backend = ShardBackend(0, 2, checkpoint_dir=str(tmp_path))
        first = experiment.run(backend=backend)
        assert (tmp_path / shard_filename(0, 2)).exists()

        executed = _counting_run_variant(monkeypatch)
        again = experiment.run(backend=backend)
        assert executed == [], "re-invocation must not recompute finished rows"
        assert canonical(again) == canonical(first)

    def test_resume_completes_missing_shard_without_recomputation(
        self, experiment, serial, tmp_path, monkeypatch
    ):
        experiment.run(backend=ShardBackend(0, 2, checkpoint_dir=str(tmp_path)))
        done = {run.label for run in shard_plans(experiment, 2)[0].runs}

        executed = _counting_run_variant(monkeypatch)
        resumed = experiment.resume(str(tmp_path))
        assert set(executed) == {
            run.label for run in shard_plans(experiment, 2)[1].runs
        }
        assert not (set(executed) & done)
        assert canonical(resumed) == canonical(serial)
        # The recomputed rows were persisted append-only alongside the shard.
        names = [path.name for path, _, _ in load_checkpoint(tmp_path)]
        assert "resume.jsonl" in names

    def test_resume_twice_recomputes_nothing(
        self, experiment, serial, tmp_path, monkeypatch
    ):
        experiment.run(backend=ShardBackend(1, 2, checkpoint_dir=str(tmp_path)))
        experiment.resume(str(tmp_path))

        executed = _counting_run_variant(monkeypatch)
        resumed = experiment.resume(str(tmp_path))
        assert executed == []
        assert canonical(resumed) == canonical(serial)

    def test_resume_rejects_foreign_checkpoints(self, experiment, tmp_path):
        experiment.run(backend=ShardBackend(0, 2, checkpoint_dir=str(tmp_path)))
        other = _experiment(seed=SEED + 1)
        with pytest.raises(ExperimentError, match="different experiment"):
            other.resume(str(tmp_path))

    def test_resume_needs_an_existing_directory(self, experiment, tmp_path):
        with pytest.raises(ExperimentError, match="does not exist"):
            experiment.resume(str(tmp_path / "missing"))

    def test_mixed_shard_geometries_deduplicate_via_the_directory(
        self, experiment, serial, tmp_path, monkeypatch
    ):
        # Two geometries whose shards overlap on variant 0: the second
        # invocation serves the overlap from the first one's file instead
        # of recomputing it, so the directory never holds a clash.
        experiment.run(backend=ShardBackend(0, 2, checkpoint_dir=str(tmp_path)))
        executed = _counting_run_variant(monkeypatch)
        experiment.run(backend=ShardBackend(0, 3, checkpoint_dir=str(tmp_path)))
        overlap = shard_plans(experiment, 2)[0].runs[0].label
        assert overlap not in executed
        resumed = experiment.resume(str(tmp_path))
        assert canonical(resumed) == canonical(serial)

    def test_overlapping_checkpoint_files_clash(self, experiment, tmp_path):
        import shutil

        # A row copied wholesale into a second file (botched manual shard
        # collection) is a genuine clash and must be rejected.
        experiment.run(backend=ShardBackend(0, 2, checkpoint_dir=str(tmp_path)))
        shutil.copy(
            tmp_path / shard_filename(0, 2), tmp_path / shard_filename(0, 4)
        )
        with pytest.raises(ExperimentError, match="clash"):
            experiment.resume(str(tmp_path))

    def test_interrupted_mid_variant_recovers(self, experiment, serial, tmp_path):
        path = tmp_path / shard_filename(0, 2)
        experiment.run(backend=ShardBackend(0, 2, checkpoint_dir=str(tmp_path)))
        # Simulate a crash mid-append: drop the last completed row and leave
        # a torn half-written line behind.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + '\n{"kind": "row", "row": {"exp')
        resumed = experiment.resume(str(tmp_path))
        assert canonical(resumed) == canonical(serial)

    def test_shard_retry_after_torn_append_heals_the_file(
        self, experiment, serial, tmp_path
    ):
        backend = ShardBackend(0, 2, checkpoint_dir=str(tmp_path))
        path = tmp_path / shard_filename(0, 2)
        experiment.run(backend=backend)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + '\n{"kind": "row", "row": {"exp')
        # The advertised recovery path: simply re-invoke the shard.  The
        # torn fragment must not corrupt the fresh append.
        retried = experiment.run(backend=backend)
        assert canonical(retried) == canonical(
            experiment.run(backend=ShardBackend(0, 2))
        )
        # And the healed file now parses clean — every line committed.
        again = experiment.run(backend=backend)
        assert canonical(again) == canonical(retried)

    def test_shard_retry_after_resume_does_not_duplicate(
        self, experiment, serial, tmp_path, monkeypatch
    ):
        # Shard 0 never ran; resume recovers its rows into resume.jsonl.
        experiment.run(backend=ShardBackend(1, 2, checkpoint_dir=str(tmp_path)))
        experiment.resume(str(tmp_path))
        # A scheduler retry of shard 0 must serve those rows from the
        # checkpoint directory, not recompute them into its own file.
        executed = _counting_run_variant(monkeypatch)
        retried = experiment.run(backend=ShardBackend(0, 2, checkpoint_dir=str(tmp_path)))
        assert executed == []
        assert len(retried) == 3
        # And the directory stays clash-free for later resumes.
        resumed = experiment.resume(str(tmp_path))
        assert canonical(resumed) == canonical(serial)

    def test_crash_during_first_append_leaves_recoverable_shard(
        self, experiment, serial, tmp_path
    ):
        backend = ShardBackend(0, 2, checkpoint_dir=str(tmp_path))
        path = tmp_path / shard_filename(0, 2)
        # Run killed while the header itself was being flushed.
        path.write_text('{"kind": "header", "format_ver')
        retried = experiment.run(backend=backend)
        assert canonical(retried) == canonical(
            experiment.run(backend=ShardBackend(0, 2))
        )
        # Resume also tolerates the torn-header file.
        resumed = experiment.resume(str(tmp_path))
        assert canonical(resumed) == canonical(serial)


def _passwords(**settings) -> Experiment:
    settings.setdefault("n_receivers", 200)
    variants = (VariantSpec("passwords", params=settings.pop("params", {})),)
    return Experiment("e", variants, **settings)


class TestResumeChecksServedRows:
    """A checkpointed row is served only to the definition that produced it.

    ``row_key`` pins the variant's label, parameters and mode; the seed,
    size, chunking and task are checked row by row before resume serves
    anything, and a mismatch appends nothing.
    """

    def _assert_rejected(self, tmp_path, field, original, changed):
        _passwords(**original).run(backend=ShardBackend(0, 1, checkpoint_dir=str(tmp_path)))
        before = {path.name: path.read_text() for path in tmp_path.iterdir()}
        with pytest.raises(ExperimentError, match=rf"shard-0000-of-0001\.jsonl.*{field}"):
            _passwords(**changed).resume(str(tmp_path))
        assert {path.name: path.read_text() for path in tmp_path.iterdir()} == before

    def test_changed_n_receivers_is_rejected(self, tmp_path):
        self._assert_rejected(tmp_path, "n_receivers", {}, {"n_receivers": 400})

    def test_changed_batch_size_is_rejected(self, tmp_path):
        self._assert_rejected(tmp_path, "batch_size", {}, {"batch_size": 100})

    def test_changed_task_is_rejected(self, tmp_path):
        self._assert_rejected(tmp_path, "task", {}, {"task": "recall"})

    def test_changed_seed_strategy_is_rejected(self, tmp_path):
        self._assert_rejected(
            tmp_path, "seed", {"seed_strategy": "shared"}, {"seed_strategy": "per-variant"}
        )

    def test_changed_rounds_are_recomputed(self, tmp_path, monkeypatch):
        _passwords().run(backend=ShardBackend(0, 1, checkpoint_dir=str(tmp_path)))
        executed = _counting_run_variant(monkeypatch)
        resumed = _passwords(params={"rounds": 3}).resume(str(tmp_path))
        assert len(executed) == 1
        assert [row.rounds for row in resumed] == [3]

    def test_unchanged_resume_serves_every_row(self, tmp_path, monkeypatch):
        original = _passwords(paths=("analyze", "simulate")).run(
            backend=ShardBackend(0, 1, checkpoint_dir=str(tmp_path))
        )
        executed = _counting_run_variant(monkeypatch)
        resumed = _passwords(paths=("analyze", "simulate")).resume(str(tmp_path))
        assert executed == []
        assert resumed.to_dict() == original.to_dict()
        assert not (tmp_path / "resume.jsonl").exists()


class TestShardProgress:
    def test_progress_reports_before_first_and_after_each_unit(
        self, experiment, tmp_path
    ):
        seen = []
        backend = ShardBackend(
            0, 2, checkpoint_dir=str(tmp_path), on_progress=seen.append
        )
        experiment.run(backend=backend)
        n_units = len(shard_plans(experiment, 2)[0].runs)
        assert len(seen) == n_units + 1, "one leading report plus one per unit"
        assert all(isinstance(progress, ShardProgress) for progress in seen)
        assert [progress.variants_done for progress in seen] == list(
            range(n_units + 1)
        )
        assert all(progress.variants_total == n_units for progress in seen)
        assert seen[0].rows_committed == 0 and seen[0].rows_appended == 0
        # Everything was fresh on a cold run: committed == appended.
        assert seen[-1].rows_committed == seen[-1].rows_appended == 3

    def test_retry_reports_served_rows_as_committed_not_appended(
        self, experiment, tmp_path
    ):
        experiment.run(backend=ShardBackend(0, 2, checkpoint_dir=str(tmp_path)))
        seen = []
        backend = ShardBackend(
            0, 2, checkpoint_dir=str(tmp_path), on_progress=seen.append
        )
        experiment.run(backend=backend)
        # The heartbeat signal (rows_committed) still advances — the
        # scheduler must see a retried shard as live — but the fault
        # budget (rows_appended) meters nothing.
        assert seen[-1].rows_committed == 3
        assert all(progress.rows_appended == 0 for progress in seen)

    def test_on_progress_does_not_change_results(self, experiment, serial, tmp_path):
        backend = ShardBackend(
            0, 2, checkpoint_dir=str(tmp_path), on_progress=lambda progress: None
        )
        bare = experiment.run(backend=ShardBackend(0, 2))
        assert canonical(experiment.run(backend=backend)) == canonical(bare)


class TestAppendComplexity:
    def test_checkpointed_run_scans_the_log_once(
        self, experiment, tmp_path, monkeypatch
    ):
        # The retry path must be O(rows appended), not O(rows²): the
        # shard log's torn-tail recovery scan (its only full read on the
        # append path) happens once per execute, no matter how many
        # variants append.
        import pathlib

        backend = ShardBackend(0, 1, checkpoint_dir=str(tmp_path))
        path = tmp_path / shard_filename(0, 1)
        experiment.run(backend=backend)  # seed the checkpoint
        # Keep only the header and the first row: the retry recomputes
        # five variants, each appending to the already-existing file.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")

        reads = []
        original = pathlib.Path.read_bytes

        def counting_read_bytes(self):
            reads.append(str(self))
            return original(self)

        monkeypatch.setattr(pathlib.Path, "read_bytes", counting_read_bytes)
        retried = experiment.run(backend=backend)
        assert reads.count(str(path)) == 1, "one recovery scan per execute"
        assert len(retried) == 6


class TestRowIdentity:
    def test_variant_hash_is_content_based(self, serial):
        row = serial.rows[0]
        twin = serial.rows[0]
        assert row.variant_hash == twin.variant_hash
        assert serial.rows[0].variant_hash != serial.rows[1].variant_hash

    def test_row_key_separates_modes(self):
        experiment = _experiment(n_receivers=40, paths=("analyze", "simulate"))
        results = experiment.run()
        analytic = results.row(results.labels()[0], mode="analytic")
        simulated = results.row(results.labels()[0], mode="batch")
        assert analytic.variant_hash == simulated.variant_hash
        assert analytic.row_key() != simulated.row_key()

    def test_row_by_hash_lookup(self, serial):
        row = serial.rows[2]
        assert serial.row_by_hash(row.variant_hash) is row
        with pytest.raises(ExperimentError, match="no row"):
            serial.row_by_hash("0" * 16)

    def test_scenario_variant_hash_matches_row_hash(self, serial):
        from repro.systems import get_scenario

        row = serial.rows[0]
        variant = get_scenario(row.scenario).bind(**dict(row.params))
        assert variant.variant_hash() == row.variant_hash
