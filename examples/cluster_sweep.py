#!/usr/bin/env python3
"""A scheduled worker fleet surviving a mid-shard crash.

``examples/sharded_sweep.py`` runs the shards by hand; this example
hands the same kind of grid to the :mod:`repro.cluster` scheduler and
lets the machinery do what a human operator would have to: launch
workers, watch their heartbeats, notice a death, and retry.

1. declare a password-policy grid and the experiment,
2. run it serially once — the correctness anchor every scheduled run
   must match bit for bit (modulo wall-clock telemetry),
3. schedule the grid as 4 shards on at most 2 local worker processes
   (``ShardScheduler(max_workers=2)`` over its default
   :class:`LocalProcessFleet`), with a deterministic
   :class:`FaultInjector` armed to hard-kill the shard-1 worker right
   after its first committed row (leaving the torn shard-log line a
   real crash would leave),
4. watch the scheduler detect the death, requeue the shard with
   backoff, and rerun it — the retry dedups against the append-only
   checkpoint, so nothing is recomputed twice — and
5. read the structured scheduler event log back: every queued /
   started / worker-failed / requeued / completed / merged transition
   is one committed JSONL record in the checkpoint directory.

The same story is drillable from the shell::

    python -m repro.cluster run --scenario passwords \\
        --grid '{"single_sign_on": [false, true]}' \\
        --task recall-passwords --shards 4 --workers 2 \\
        --checkpoint-dir ckpt --inject-kill-after-rows 1 --inject-shards 1
    python -m repro.cluster events --checkpoint-dir ckpt

Run with::

    PYTHONPATH=src python examples/cluster_sweep.py
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.cluster import (
    FAULT_KILL_EXIT_CODE,
    FaultInjector,
    ShardScheduler,
    read_scheduler_events,
)
from repro.experiments import Experiment, SweepSpec

SHARD_COUNT = 4
MAX_WORKERS = 2


def build_experiment() -> Experiment:
    sweep = SweepSpec(
        scenario="passwords",
        grid={
            "distinct_accounts": [4, 8],
            "single_sign_on": [False, True],
            "password_vault": [False, True],
        },
    )
    return Experiment.from_sweep(
        "password-burden-cluster",
        sweep,
        n_receivers=400,
        seed=11,
        task="recall-passwords",
    )


def main() -> None:
    experiment = build_experiment()
    serial = experiment.run()
    print(
        f"grid: {len(experiment.variants)} variants -> {SHARD_COUNT} shards "
        f"on a {MAX_WORKERS}-process fleet"
    )

    checkpoint_dir = Path(tempfile.mkdtemp(prefix="repro-cluster-sweep-"))
    try:
        # Arm the injector: the worker running shard 1 (first attempt
        # only) dies right after committing its first row, tearing the
        # shard log's final line exactly the way a real crash would.
        scheduler = ShardScheduler(
            experiment,
            shard_count=SHARD_COUNT,
            checkpoint_dir=str(checkpoint_dir),
            max_workers=MAX_WORKERS,
            backoff_base=0.1,
            backoff_cap=1.0,
            fault_injector=FaultInjector(shards=(1,), kill_after_rows=1),
        )
        merged = scheduler.run()

        (death,) = read_scheduler_events(checkpoint_dir, kind="worker-failed")
        assert death["exit_code"] == FAULT_KILL_EXIT_CODE
        (retry,) = read_scheduler_events(checkpoint_dir, kind="requeued")
        print(
            f"shard {death['shard']} attempt {death['attempt']} was killed "
            f"mid-shard (exit {death['exit_code']}); requeued with "
            f"{retry['delay']:.3f}s backoff and completed on attempt "
            f"{retry['attempt']}"
        )

        # The crash changed nothing about the science: the merged set is
        # bit-identical to the serial run modulo wall-clock telemetry.
        assert merged.canonical_dict() == serial.canonical_dict()
        print("merged fleet results are bit-identical to the serial run")
        print()
        print(merged.to_markdown(["protection_rate", "capability_failure_rate"]))

        # The event log is the run's flight recorder: replay the shard's
        # whole life from queued to completed.
        print()
        print("scheduler event log for the killed shard:")
        for event in read_scheduler_events(checkpoint_dir):
            if event.get("shard") == death["shard"]:
                extras = {
                    key: value
                    for key, value in event.items()
                    if key not in ("event", "seq", "time", "shard")
                }
                print(f"  seq {event['seq']:>3}  {event['event']:<13} {extras}")
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
