"""End-to-end cluster tests over real worker processes (ISSUE 7).

The acceptance drill for the scheduler: run a 4-shard sweep on a real
:class:`LocalProcessFleet`, kill a worker mid-shard with the
deterministic fault injector, and require the run to complete via
requeue with the merged :class:`ResultSet` bit-identical — modulo
:data:`WALL_CLOCK_METRICS` — to a serial run of the same experiment.
"""

import json

import pytest

from repro.cluster import (
    FAULT_KILL_EXIT_CODE,
    FaultInjector,
    LocalProcessFleet,
    ShardAssignment,
    ShardScheduler,
    read_scheduler_events,
)
from repro.cluster.cli import main as cluster_main
from repro.cluster.faults import TORN_FRAGMENT
from repro.experiments import Experiment, SweepSpec
from repro.io import load_checkpoint, read_shard

SEED = 20260808


def _experiment(name="cluster-int", n_receivers=30) -> Experiment:
    # 8 variants -> 2 per shard at shard_count=4, so kill_after_rows=1
    # strikes mid-shard: one row committed, one still to compute.
    sweep = SweepSpec(
        scenario="passwords",
        grid={
            "distinct_accounts": [4, 8],
            "single_sign_on": [False, True],
            "forbid_reuse": [False, True],
        },
    )
    return Experiment.from_sweep(
        name, sweep, n_receivers=n_receivers, seed=SEED, task="recall-passwords"
    )


@pytest.fixture(scope="module")
def experiment() -> Experiment:
    return _experiment()


@pytest.fixture(scope="module")
def serial(experiment):
    return experiment.run()


def make_scheduler(experiment, checkpoint_dir, **overrides) -> ShardScheduler:
    kwargs = dict(
        shard_count=4,
        max_workers=2,
        heartbeat_timeout=30.0,
        poll_interval=0.02,
        backoff_base=0.05,
        backoff_cap=0.2,
    )
    kwargs.update(overrides)
    return ShardScheduler(experiment, checkpoint_dir=str(checkpoint_dir), **kwargs)


def all_checkpoint_row_keys(checkpoint_dir):
    return [
        row.row_key()
        for _, _, rows in load_checkpoint(checkpoint_dir)
        for row in rows
    ]


class TestHappyPath:
    def test_fleet_run_is_bit_identical_to_serial(
        self, experiment, serial, tmp_path
    ):
        merged = make_scheduler(experiment, tmp_path).run()
        assert merged.canonical_dict() == serial.canonical_dict()
        completed = read_scheduler_events(tmp_path, kind="completed")
        assert sorted(event["shard"] for event in completed) == [0, 1, 2, 3]
        assert read_scheduler_events(tmp_path, kind="requeued") == []
        (final,) = read_scheduler_events(tmp_path, kind="merged")
        assert final["rows"] == len(serial.rows)


class TestKillMidShard:
    def test_injected_crash_recovers_via_requeue(self, experiment, serial, tmp_path):
        scheduler = make_scheduler(
            experiment,
            tmp_path,
            fault_injector=FaultInjector(shards=(1,), kill_after_rows=1),
        )
        merged = scheduler.run()

        # The crash is visible in the event log: attempt 1 died with the
        # injector's exit code, the shard was requeued, attempt 2 finished.
        (failed,) = read_scheduler_events(tmp_path, kind="worker-failed")
        assert (failed["shard"], failed["attempt"]) == (1, 1)
        assert failed["exit_code"] == FAULT_KILL_EXIT_CODE
        (requeued,) = read_scheduler_events(tmp_path, kind="requeued")
        assert (requeued["shard"], requeued["attempt"]) == (1, 2)
        completed = read_scheduler_events(tmp_path, kind="completed")
        assert {(e["shard"], e["attempt"]) for e in completed} == {
            (0, 1),
            (1, 2),
            (2, 1),
            (3, 1),
        }

        # The retry dedups against the checkpoint: every row identity
        # appears exactly once across all shard logs, and the merged set
        # is bit-identical to serial.
        keys = all_checkpoint_row_keys(tmp_path)
        assert len(keys) == len(set(keys)), "retry must not duplicate rows"
        assert len(keys) == len(serial.rows)
        assert merged.canonical_dict() == serial.canonical_dict()

    def test_kill_leaves_a_torn_final_line(self, tmp_path):
        # Drive one assignment directly through the fleet (no scheduler,
        # no retry) to inspect the crash's exact on-disk signature.
        experiment = _experiment(name="cluster-torn")
        assignment = ShardAssignment(
            experiment=experiment,
            shard_index=0,
            shard_count=4,
            checkpoint_dir=str(tmp_path),
            fault=FaultInjector(shards=(0,), kill_after_rows=1),
        )
        handle = LocalProcessFleet().launch(assignment)
        handle.process.join(timeout=120)
        assert handle.poll() == FAULT_KILL_EXIT_CODE
        text = assignment.shard_log_path.read_text()
        assert text.endswith(TORN_FRAGMENT), "crash mid-append, torn line"
        assert not text.endswith("\n")
        # The committed prefix survives the tear: one row is durable.
        _, rows = read_shard(assignment.shard_log_path)
        assert len(rows) == 1
        # And a scheduler pass over the same directory heals everything.
        merged = make_scheduler(experiment, tmp_path).run()
        assert merged.canonical_dict() == experiment.run().canonical_dict()
        keys = all_checkpoint_row_keys(tmp_path)
        assert len(keys) == len(set(keys))


class TestHeartbeatTimeout:
    def test_silent_worker_is_requeued_and_run_completes(
        self, experiment, serial, tmp_path
    ):
        # The armed worker computes its shard but never says so (all
        # heartbeats dropped) and then lingers instead of exiting: the
        # scheduler must detect the silence, kill it, and requeue.
        scheduler = make_scheduler(
            experiment,
            tmp_path,
            shard_count=2,
            fault_injector=FaultInjector(
                shards=(0,), drop_heartbeats_after=0, delay_completion_seconds=30.0
            ),
            heartbeat_timeout=1.0,
        )
        merged = scheduler.run()
        timeouts = read_scheduler_events(tmp_path, kind="timeout")
        assert [event["shard"] for event in timeouts] == [0]
        requeues = read_scheduler_events(tmp_path, kind="requeued")
        assert [(e["shard"], e["attempt"]) for e in requeues] == [(0, 2)]
        assert merged.canonical_dict() == serial.canonical_dict()
        keys = all_checkpoint_row_keys(tmp_path)
        assert len(keys) == len(set(keys))


class TestCli:
    def test_run_with_injection_then_events(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt"
        output = tmp_path / "merged.json"
        rc = cluster_main(
            [
                "run",
                "--scenario",
                "passwords",
                "--grid",
                '{"single_sign_on": [false, true], "distinct_accounts": [4, 8]}',
                "--task",
                "recall-passwords",
                "--n-receivers",
                "20",
                "--seed",
                str(SEED),
                "--shards",
                "2",
                "--workers",
                "2",
                "--checkpoint-dir",
                str(checkpoint),
                "--backoff-base",
                "0.05",
                "--inject-kill-after-rows",
                "1",
                "--inject-shards",
                "0",
                "--output",
                str(output),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "1 requeue(s)" in stdout
        payload = json.loads(output.read_text())
        assert len(payload["rows"]) == 4

        rc = cluster_main(
            ["events", "--checkpoint-dir", str(checkpoint), "--kind", "worker-failed"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [event["exit_code"] for event in events] == [FAULT_KILL_EXIT_CODE]
