"""Fake-clock unit tests for the scheduler's requeue/backoff machinery (ISSUE 7).

Nothing here launches a process or computes a row: a scripted transport
hands the scheduler fake worker handles, the clock and sleeper are
synthetic, and the final merge is stubbed out.  What's under test is the
state machine itself — dispatch order, the capacity cap, heartbeat
timeouts, capped exponential backoff with deterministic jitter, and
attempt exhaustion.
"""

import os
import types

import pytest

from repro.cluster import ShardScheduler, backoff_delay, read_scheduler_events
from repro.core.exceptions import ClusterError
from repro.experiments import Experiment, SweepSpec
from repro.simulation.pool import usable_cpus

SEED = 20260808


@pytest.fixture(scope="module")
def experiment():
    sweep = SweepSpec(
        scenario="passwords",
        grid={"single_sign_on": [False, True], "distinct_accounts": [4, 8]},
    )
    return Experiment.from_sweep(
        "scheduler-unit", sweep, n_receivers=20, seed=SEED, task="recall-passwords"
    )


class FakeClock:
    """Monotonic time that only moves when the scheduler sleeps."""

    def __init__(self) -> None:
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds >= 0.0
        self.now += seconds


class FakeHandle:
    """A scripted worker: exits with ``exit_code`` on the
    ``exit_after_polls``-th poll (never, if ``None``), reporting a fixed
    ``rows`` count from :meth:`rows_committed`."""

    def __init__(self, exit_code=0, exit_after_polls=1, rows=None):
        self.exit_code = exit_code
        self.exit_after_polls = exit_after_polls
        self.rows = rows
        self.polls = 0
        self.terminated = False

    def poll(self):
        if self.terminated:
            return -9
        self.polls += 1
        if self.exit_after_polls is not None and self.polls >= self.exit_after_polls:
            return self.exit_code
        return None

    def rows_committed(self):
        return self.rows

    def terminate(self):
        self.terminated = True


class FakeTransport:
    """Hands out handles from a ``factory(shard_index, attempt)`` and
    records every launch."""

    def __init__(self, factory):
        self.factory = factory
        self.launches = []

    def launch(self, assignment):
        handle = self.factory(assignment.shard_index, assignment.attempt)
        self.launches.append((assignment.shard_index, assignment.attempt, handle))
        return handle


def make_scheduler(experiment, tmp_path, factory, **overrides):
    clock = FakeClock()
    kwargs = dict(
        transport=FakeTransport(factory),
        max_workers=4,
        heartbeat_timeout=1.0,
        poll_interval=0.05,
        backoff_base=0.25,
        backoff_cap=8.0,
        backoff_jitter=0.0,
        max_attempts=4,
        clock=clock.clock,
        sleep=clock.sleep,
    )
    kwargs.update(overrides)
    scheduler = ShardScheduler(
        experiment, shard_count=2, checkpoint_dir=str(tmp_path), **kwargs
    )
    return scheduler, clock


@pytest.fixture()
def stub_merge(monkeypatch):
    """Replace the real checkpoint merge with a sentinel result."""
    sentinel = types.SimpleNamespace(rows=[])
    monkeypatch.setattr(
        "repro.cluster.scheduler.resume_experiment", lambda exp, d: sentinel
    )
    return sentinel


def kinds(checkpoint_dir):
    return [event["event"] for event in read_scheduler_events(checkpoint_dir)]


class TestHappyPath:
    def test_clean_run_event_sequence(self, experiment, tmp_path, stub_merge):
        scheduler, _ = make_scheduler(
            experiment, tmp_path, lambda shard, attempt: FakeHandle()
        )
        assert scheduler.run() is stub_merge
        assert kinds(tmp_path) == [
            "queued",
            "queued",
            "started",
            "started",
            "completed",
            "completed",
            "merged",
        ]
        queued = read_scheduler_events(tmp_path, kind="queued")
        assert [event["shard"] for event in queued] == [0, 1]
        assert all(event["n_work_units"] == 2 for event in queued)

    def test_capacity_cap_serializes_dispatch(self, experiment, tmp_path, stub_merge):
        scheduler, _ = make_scheduler(
            experiment, tmp_path, lambda shard, attempt: FakeHandle(), max_workers=1
        )
        scheduler.run()
        # With one worker slot and instant completions, each shard must
        # finish before the next starts.
        assert kinds(tmp_path) == [
            "queued",
            "queued",
            "started",
            "completed",
            "started",
            "completed",
            "merged",
        ]


class TestRequeueOnFailure:
    def test_failed_worker_is_requeued_and_retried(
        self, experiment, tmp_path, stub_merge
    ):
        def factory(shard, attempt):
            if shard == 0 and attempt == 1:
                return FakeHandle(exit_code=70)
            return FakeHandle()

        scheduler, clock = make_scheduler(
            experiment, tmp_path, factory, backoff_jitter=0.1
        )
        scheduler.run()
        failed = read_scheduler_events(tmp_path, kind="worker-failed")
        assert [(e["shard"], e["attempt"], e["exit_code"]) for e in failed] == [
            (0, 1, 70)
        ]
        (requeued,) = read_scheduler_events(tmp_path, kind="requeued")
        assert requeued["shard"] == 0 and requeued["attempt"] == 2
        expected = backoff_delay(0.25, 8.0, 0.1, SEED, 0, 1)
        assert requeued["delay"] == round(expected, 6)
        retry_started = [
            event
            for event in read_scheduler_events(tmp_path, kind="started")
            if event["shard"] == 0 and event["attempt"] == 2
        ]
        assert len(retry_started) == 1
        assert retry_started[0]["time"] >= requeued["time"] + requeued["delay"] - 1e-9
        completed = read_scheduler_events(tmp_path, kind="completed")
        assert {(e["shard"], e["attempt"]) for e in completed} == {(0, 2), (1, 1)}

    def test_backoff_doubles_per_failure_until_cap(
        self, experiment, tmp_path, stub_merge
    ):
        def factory(shard, attempt):
            if shard == 0 and attempt <= 3:
                return FakeHandle(exit_code=1)
            return FakeHandle()

        scheduler, _ = make_scheduler(
            experiment, tmp_path, factory, backoff_base=2.0, backoff_cap=5.0
        )
        scheduler.run()
        delays = [
            event["delay"] for event in read_scheduler_events(tmp_path, kind="requeued")
        ]
        assert delays == [2.0, 4.0, 5.0], "exponential growth, capped"


class TestHeartbeatTimeout:
    def test_silent_worker_is_killed_and_requeued(
        self, experiment, tmp_path, stub_merge
    ):
        hung = FakeHandle(exit_after_polls=None, rows=3)

        def factory(shard, attempt):
            if shard == 0 and attempt == 1:
                return hung
            return FakeHandle()

        scheduler, _ = make_scheduler(experiment, tmp_path, factory)
        scheduler.run()
        assert hung.terminated, "a silent worker must be hard-killed"
        (timeout,) = read_scheduler_events(tmp_path, kind="timeout")
        assert timeout["shard"] == 0 and timeout["attempt"] == 1
        assert timeout["rows"] == 3, "last observed progress is recorded"
        assert timeout["silent_for"] >= scheduler.heartbeat_timeout
        # Progress *was* observed once before the silence.
        beats = read_scheduler_events(tmp_path, kind="heartbeat")
        assert any(e["shard"] == 0 and e["rows"] == 3 for e in beats)
        (requeued,) = read_scheduler_events(tmp_path, kind="requeued")
        assert (requeued["shard"], requeued["attempt"]) == (0, 2)

    def test_progress_resets_the_timeout(self, experiment, tmp_path, stub_merge):
        class TricklingHandle(FakeHandle):
            """Commits one fresh row per poll — slow but alive."""

            def rows_committed(self):
                return self.polls

        def factory(shard, attempt):
            if shard == 0:
                return TricklingHandle(exit_after_polls=60)
            return FakeHandle()

        # 60 polls * 0.05s/poll is 3s of wall clock against a 1s timeout:
        # only steady progress keeps the worker alive to completion.
        scheduler, _ = make_scheduler(experiment, tmp_path, factory)
        scheduler.run()
        assert read_scheduler_events(tmp_path, kind="timeout") == []
        assert read_scheduler_events(tmp_path, kind="requeued") == []


class TestExhaustion:
    def test_exhausted_shard_aborts_and_terminates_the_fleet(
        self, experiment, tmp_path, stub_merge
    ):
        bystander = FakeHandle(exit_after_polls=None)

        def factory(shard, attempt):
            if shard == 0:
                return FakeHandle(exit_code=1)
            return bystander

        scheduler, _ = make_scheduler(
            experiment, tmp_path, factory, max_attempts=2, heartbeat_timeout=1e9
        )
        with pytest.raises(ClusterError, match="shard 0 failed 2 times"):
            scheduler.run()
        (exhausted,) = read_scheduler_events(tmp_path, kind="exhausted")
        assert exhausted["shard"] == 0 and exhausted["attempts"] == 2
        assert bystander.terminated, "abort must not leak running workers"
        assert read_scheduler_events(tmp_path, kind="merged") == []


class TestBackoffDelay:
    def test_exponential_and_capped_before_jitter(self):
        assert backoff_delay(1.0, 100.0, 0.0, SEED, 0, 1) == 1.0
        assert backoff_delay(1.0, 100.0, 0.0, SEED, 0, 2) == 2.0
        assert backoff_delay(1.0, 100.0, 0.0, SEED, 0, 3) == 4.0
        assert backoff_delay(1.0, 4.0, 0.0, SEED, 0, 10) == 4.0

    def test_jitter_is_bounded_and_deterministic(self):
        first = backoff_delay(1.0, 8.0, 0.25, SEED, 3, 2)
        again = backoff_delay(1.0, 8.0, 0.25, SEED, 3, 2)
        assert first == again, "same (seed, shard, failures) -> same delay"
        assert 2.0 <= first <= 2.0 * 1.25
        other_shard = backoff_delay(1.0, 8.0, 0.25, SEED, 4, 2)
        other_failure = backoff_delay(1.0, 8.0, 0.25, SEED, 3, 3)
        assert other_shard != first
        assert other_failure != first * 2.0


class TestValidation:
    def test_bad_settings_raise_cluster_error(self, experiment, tmp_path):
        good = dict(shard_count=2, checkpoint_dir=str(tmp_path))
        with pytest.raises(ClusterError, match="shard_count"):
            ShardScheduler(experiment, 0, str(tmp_path))
        with pytest.raises(ClusterError, match="heartbeat_timeout"):
            ShardScheduler(experiment, **good, heartbeat_timeout=0.0)
        with pytest.raises(ClusterError, match="poll_interval"):
            ShardScheduler(experiment, **good, poll_interval=0.0)
        with pytest.raises(ClusterError, match="backoff"):
            ShardScheduler(experiment, **good, backoff_base=-1.0)
        with pytest.raises(ClusterError, match="max_attempts"):
            ShardScheduler(experiment, **good, max_attempts=0)
        with pytest.raises(ClusterError, match="max_workers"):
            ShardScheduler(experiment, **good, max_workers=0)

    def test_max_workers_defaults_to_usable_cpus(
        self, experiment, tmp_path, monkeypatch
    ):
        # The scheduler owns the one worker cap: without one it takes the
        # affinity mask's CPU count, and a transport's own max_workers
        # attribute is not consulted.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(5)), raising=False
        )
        transport = FakeTransport(lambda shard, attempt: FakeHandle())
        transport.max_workers = 3
        scheduler = ShardScheduler(
            experiment, 2, str(tmp_path), transport=transport
        )
        assert scheduler.max_workers == usable_cpus() == 5
