"""Command-line entry point: ``python -m repro.cluster``.

Runs a sharded sweep end to end from the shell — declare a grid, pick a
shard count and worker fleet size, point at a checkpoint directory, and
the scheduler dispatches, monitors, requeues, and merges.  Because every
row is checkpointed append-only and every retry dedups against the
checkpoint directory, the *same command re-run after any crash* (worker
or scheduler) resumes where it left off instead of starting over::

    python -m repro.cluster run \\
        --scenario passwords \\
        --grid '{"distinct_accounts": [4, 8, 16], "single_sign_on": [false, true]}' \\
        --task recall-passwords --n-receivers 2000 --seed 7 \\
        --shards 4 --workers 2 --checkpoint-dir ckpt --output results.json

    python -m repro.cluster events --checkpoint-dir ckpt

``run --inject-*`` arms the deterministic fault injector (kill a worker
after N rows, drop heartbeats, delay completion) so the crash → requeue
→ resume path can be drilled from the shell; see
:mod:`repro.cluster.faults`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ..experiments.design import Experiment, SweepSpec
from .faults import FaultInjector
from .events import read_scheduler_events
from .scheduler import ShardScheduler

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Fault-tolerant work-queue scheduler for sharded sweeps.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="schedule a sharded sweep to completion and merge it"
    )
    run.add_argument("--scenario", required=True, help="registered scenario name")
    run.add_argument(
        "--grid",
        required=True,
        help="JSON object: parameter name -> list of values to sweep",
    )
    run.add_argument(
        "--base",
        default="{}",
        help=(
            "JSON object of fixed parameter overrides applied to every point, "
            'engine knobs included (e.g. \'{"rounds": 3}\')'
        ),
    )
    run.add_argument("--name", default=None, help="experiment name (default: derived)")
    run.add_argument("--n-receivers", type=int, default=500)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--task", default=None)
    run.add_argument("--mode", default="batch", choices=("batch", "reference"))
    run.add_argument("--shards", type=int, required=True, help="shard count")
    run.add_argument(
        "--workers", type=int, default=None, help="concurrent worker processes"
    )
    run.add_argument("--checkpoint-dir", required=True)
    run.add_argument("--heartbeat-timeout", type=float, default=60.0)
    run.add_argument("--poll-interval", type=float, default=0.05)
    run.add_argument("--max-attempts", type=int, default=4)
    run.add_argument("--backoff-base", type=float, default=0.25)
    run.add_argument("--backoff-cap", type=float, default=8.0)
    run.add_argument("--backoff-jitter", type=float, default=0.1)
    run.add_argument(
        "--output", default=None, help="write the merged ResultSet JSON here"
    )
    run.add_argument(
        "--metrics",
        default=None,
        help="comma-separated metric names to print as a Markdown table",
    )
    fault = run.add_argument_group(
        "fault injection (deterministic crash drills; see repro.cluster.faults)"
    )
    fault.add_argument(
        "--inject-kill-after-rows",
        type=int,
        default=None,
        help="hard-kill an armed worker once it appended N fresh rows",
    )
    fault.add_argument(
        "--inject-drop-heartbeats-after",
        type=int,
        default=None,
        help="suppress an armed worker's heartbeats after N fresh rows",
    )
    fault.add_argument(
        "--inject-delay-completion",
        type=float,
        default=0.0,
        help="armed workers linger this many seconds after finishing",
    )
    fault.add_argument(
        "--inject-shards",
        default=None,
        help="comma-separated shard indices the fault arms on (default: all)",
    )
    fault.add_argument(
        "--inject-attempts",
        default="1",
        help="comma-separated attempt numbers the fault arms on (default: 1)",
    )

    events = commands.add_parser(
        "events", help="print the scheduler event log of a checkpoint directory"
    )
    events.add_argument("--checkpoint-dir", required=True)
    events.add_argument("--kind", default=None, help="only this event kind")
    return parser


def _parse_indices(text: Optional[str]) -> Optional[tuple]:
    if text is None or text.strip() == "":
        return None
    return tuple(int(part) for part in text.split(","))


def _fault_from_args(args: argparse.Namespace) -> Optional[FaultInjector]:
    if (
        args.inject_kill_after_rows is None
        and args.inject_drop_heartbeats_after is None
        and args.inject_delay_completion == 0.0
    ):
        return None
    return FaultInjector(
        shards=_parse_indices(args.inject_shards),
        attempts=_parse_indices(args.inject_attempts),
        kill_after_rows=args.inject_kill_after_rows,
        drop_heartbeats_after=args.inject_drop_heartbeats_after,
        delay_completion_seconds=args.inject_delay_completion,
    )


def _run(args: argparse.Namespace) -> int:
    grid = json.loads(args.grid)
    base = json.loads(args.base)
    sweep = SweepSpec(scenario=args.scenario, grid=grid, base=base)
    settings = dict(n_receivers=args.n_receivers, seed=args.seed, mode=args.mode)
    if args.task is not None:
        settings["task"] = args.task
    name = args.name or f"{args.scenario}-cluster-sweep"
    experiment = Experiment.from_sweep(name, sweep, **settings)

    scheduler = ShardScheduler(
        experiment,
        shard_count=args.shards,
        checkpoint_dir=args.checkpoint_dir,
        max_workers=args.workers,
        heartbeat_timeout=args.heartbeat_timeout,
        poll_interval=args.poll_interval,
        max_attempts=args.max_attempts,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        backoff_jitter=args.backoff_jitter,
        fault_injector=_fault_from_args(args),
    )
    print(
        f"scheduling {len(experiment.variants)} variants across "
        f"{args.shards} shards ({scheduler.max_workers} workers) -> "
        f"{args.checkpoint_dir}"
    )
    merged = scheduler.run()
    requeues = read_scheduler_events(args.checkpoint_dir, kind="requeued")
    print(
        f"completed: {len(merged.rows)} rows merged "
        f"({len(requeues)} requeue(s); event log: {scheduler.events_path})"
    )
    if args.output is not None:
        merged.save(args.output)
        print(f"wrote {args.output}")
    if args.metrics is not None:
        names = [name.strip() for name in args.metrics.split(",") if name.strip()]
        print(merged.to_markdown(names))
    return 0


def _events(args: argparse.Namespace) -> int:
    for event in read_scheduler_events(args.checkpoint_dir, kind=args.kind):
        print(json.dumps(event, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    return _events(args)


if __name__ == "__main__":
    sys.exit(main())
