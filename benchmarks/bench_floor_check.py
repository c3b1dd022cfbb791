"""Benchmark floor checks: fail CI when throughput regresses.

Re-runs the exact workloads whose numbers are recorded in
``BENCH_engine.json`` (the matrix and counter rng modes at 100k
receivers), ``BENCH_shards.json`` (sharded sweep execution), and
``BENCH_scheduler.json`` (the cluster scheduler's worker fleet, run
*with* an injected worker kill so crash recovery is always exercised),
and fails if the live throughput drops below **half** of the recorded
value — a loose enough floor to ride out machine noise, tight enough to
catch a hot path regressing by an order of magnitude.  Also runs a
small-N funnel-metrics smoke so the trace layer stays wired end to end,
and an in-call fan-out smoke (a multi-round run the engine fans out over
the local pool by default must reassemble the serial fold bit for bit at
any scale; the wall-clock comparison is skipped, not failed, on
single-core runners).  The shard
floor doubles as a two-shard merge smoke (merged shards must equal the
serial run bit for bit at any scale).  The default engine's end-to-end
rates, multi-round included, and the service's request rate are bounded
by ``perfbench`` (``BENCHMARK.json``) instead.

Two checks validate the *committed recordings* rather than a live run
(deterministic file reads, engaged at every scale): the
``counter_vs_matrix_ratio`` recorded in ``BENCH_engine.json`` must stay
>= 1.0 — the justification for ``rng_mode="counter"`` being the engine
default (PR 9) — and the ``BENCH_rng.json`` acceptance block (raw fill
ratio, O(1) point-addressing growth) must have passed when recorded.  A
counter-mode zero-copy smoke additionally pins that a fanned-out run
reassembles the serial fold bit for bit *including per-receiver
records*, which in counter mode never cross the process boundary
(workers return tallies; records regenerate from coordinates at home).

The floors only engage when the live run is at the recorded scale (the
recorded numbers are meaningless for smaller N): set ``BENCH_FLOOR_N`` /
``BENCH_FLOOR_SHARD_N`` / ``BENCH_FLOOR_SCHEDULER_N`` below the
recorded scale to run everything as a pure smoke check (what CI
does).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_floor_check.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_floor_check.py -q
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Optional, Tuple
from unittest import mock

from _timing import best_of
from repro.core.stages import Stage
from repro.simulation import engine, pool
from repro.systems import get_scenario

try:
    import pytest
except ImportError:  # standalone `python benchmarks/bench_floor_check.py`
    pytest = None

REPO_ROOT = Path(__file__).resolve().parent.parent
FLOOR_FRACTION = 0.5
#: The committed BENCH_engine.json must show counter >= matrix: the
#: recorded head-to-head is what justified the counter default.
RNG_RATIO_FLOOR = 1.0
N_RECEIVERS = int(os.environ.get("BENCH_FLOOR_N", "100000"))
N_SHARD_RECEIVERS = int(os.environ.get("BENCH_FLOOR_SHARD_N", "20000"))
N_SCHEDULER_RECEIVERS = int(os.environ.get("BENCH_FLOOR_SCHEDULER_N", "20000"))

# The recorded workloads (constants mirror the recording benchmarks).
ENGINE_SEED = 20080124
ENGINE_TASK = "heed-ie_active-warning"
ROUNDS_SEED = 20080326
ROUNDS_TASK = "heed-ie_passive-warning"
ROUNDS_RECOVERY = 0.1
SCENARIO = "antiphishing"
SHARD_SEED = 20260726
SHARD_COUNT = 2
SHARD_GRID = {
    "distinct_accounts": [4, 8, 12, 16],
    "single_sign_on": [False, True],
}


# Every check appends one entry here; the module teardown (or main())
# prints the greppable one-line ``FLOOR_OK``/``FLOOR_FAIL`` summary, the
# same machine-readable convention as ``repro.devtools lint --format
# json`` exit gating.
_SUMMARY: list = []


def _check_floor(
    check: str,
    rate: float,
    recorded: Optional[Tuple[int, float]],
    engaged: bool,
    unit: str = "receivers/s",
) -> None:
    """Record one floor check in the summary, then enforce it.

    ``engaged=False`` marks a smoke-scale run: the rate is recorded for
    the summary line but no floor applies.
    """
    floor = FLOOR_FRACTION * recorded[1] if (engaged and recorded) else None
    ok = floor is None or rate >= floor
    _SUMMARY.append(
        {
            "check": check,
            "rate": round(rate, 1),
            "unit": unit,
            "floor": round(floor, 1) if floor is not None else None,
            "engaged": floor is not None,
            "ok": ok,
        }
    )
    assert rate > 0
    if floor is not None:
        assert ok, (
            f"{check} throughput {rate:,.0f} {unit} fell below the floor "
            f"{floor:,.0f} (half of recorded {recorded[1]:,.0f})"
        )


def _record_smoke(check: str, ok: bool = True) -> None:
    """A pass/fail smoke entry with no throughput floor."""
    _SUMMARY.append(
        {"check": check, "rate": None, "unit": None, "floor": None,
         "engaged": False, "ok": ok}
    )


def _print_summary() -> None:
    ok = all(entry["ok"] for entry in _SUMMARY)
    token = "FLOOR_OK" if ok else "FLOOR_FAIL"
    payload = {
        "tool": "bench_floor_check",
        "status": "ok" if ok else "fail",
        "checks": _SUMMARY,
    }
    print(f"\n{token} {json.dumps(payload, sort_keys=True)}")


if pytest is not None:

    @pytest.fixture(scope="module", autouse=True)
    def _floor_summary_reporter():
        """Print the one-line summary after the last check in the module,
        even when an earlier floor assertion already failed the run."""
        yield
        _print_summary()


def _recorded_counter_rate() -> Optional[Tuple[int, float]]:
    """(n_receivers, receivers_per_sec) recorded for counter-mode rng."""
    path = REPO_ROOT / "BENCH_engine.json"
    if not path.exists():
        return None
    counter = json.loads(path.read_text()).get("counter_mode")
    if not counter:
        return None
    return int(counter["n_receivers"]), float(counter["receivers_per_sec"])


def _recorded_shard_rate() -> Optional[Tuple[int, float]]:
    """(total_receivers, receivers_per_sec) recorded for the sharded sweep."""
    path = REPO_ROOT / "BENCH_shards.json"
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    return (
        int(payload.get("total_receivers", 0)),
        float(payload.get("sharded", {}).get("receivers_per_sec", 0.0)),
    )


def test_counter_mode_floor():
    """Counter-rng throughput must stay above half the recorded rate."""
    scenario = get_scenario(SCENARIO)
    scenario.simulate(
        1_000, seed=ENGINE_SEED, task=ENGINE_TASK, rng_mode="counter"
    )  # warm-up
    seconds, result = best_of(
        lambda: scenario.simulate(
            N_RECEIVERS, seed=ENGINE_SEED, task=ENGINE_TASK, rng_mode="counter"
        )
    )
    assert result.rng_mode == "counter"
    rate = N_RECEIVERS / seconds
    recorded = _recorded_counter_rate()
    print(f"\n  counter rng: {rate:,.0f} receivers/s (recorded: {recorded})")
    _check_floor(
        "counter_rng", rate, recorded,
        engaged=recorded is not None and N_RECEIVERS >= recorded[0],
    )


def _recorded_matrix_rate() -> Optional[Tuple[int, float]]:
    """(n_receivers, receivers_per_sec) recorded for matrix-mode rng."""
    path = REPO_ROOT / "BENCH_engine.json"
    if not path.exists():
        return None
    matrix = json.loads(path.read_text()).get("matrix_mode")
    if not matrix:
        return None
    return int(matrix["n_receivers"]), float(matrix["receivers_per_sec"])


def test_matrix_mode_floor():
    """The legacy matrix source must stay replayable at speed.

    ``rng_mode="matrix"`` is no longer the default, but every row
    archived before the counter flip reproduces through it
    (``reproduce_row`` pins it for modeless legacy payloads), so its
    throughput keeps a floor too.
    """
    scenario = get_scenario(SCENARIO)
    scenario.simulate(
        1_000, seed=ENGINE_SEED, task=ENGINE_TASK, rng_mode="matrix"
    )  # warm-up
    seconds, result = best_of(
        lambda: scenario.simulate(
            N_RECEIVERS, seed=ENGINE_SEED, task=ENGINE_TASK, rng_mode="matrix"
        )
    )
    assert result.rng_mode == "matrix"
    rate = N_RECEIVERS / seconds
    recorded = _recorded_matrix_rate()
    print(f"\n  matrix rng: {rate:,.0f} receivers/s (recorded: {recorded})")
    _check_floor(
        "matrix_rng", rate, recorded,
        engaged=recorded is not None and N_RECEIVERS >= recorded[0],
    )


def test_recorded_counter_vs_matrix_ratio():
    """The committed head-to-head must justify the counter default.

    A deterministic file check (no live timing): the
    ``counter_vs_matrix_ratio`` recorded in ``BENCH_engine.json`` was
    measured interleaved at full scale by ``bench_engine_scaling`` and
    must be >= 1.0 — regenerate the recording on a quiet machine if a
    source change moves the balance.
    """
    path = REPO_ROOT / "BENCH_engine.json"
    if not path.exists():
        _record_smoke("recorded_rng_ratio")
        return
    payload = json.loads(path.read_text())
    ratio = payload.get("counter_vs_matrix_ratio")
    if ratio is None:  # recording predates the PR-9 head-to-head rows
        _record_smoke("recorded_rng_ratio")
        return
    ok = float(ratio) >= RNG_RATIO_FLOOR
    _SUMMARY.append(
        {"check": "recorded_rng_ratio", "rate": round(float(ratio), 4),
         "unit": "counter/matrix", "floor": RNG_RATIO_FLOOR,
         "engaged": True, "ok": ok}
    )
    assert ok, (
        f"BENCH_engine.json records counter at {ratio}x the matrix rate, "
        f"below the {RNG_RATIO_FLOOR} floor that justifies the counter "
        "default — re-measure, or revisit the default"
    )


def test_recorded_rng_streams_acceptance():
    """The committed BENCH_rng.json must have passed its own acceptance
    (raw fill ratio in class, point addressing O(1)) when recorded."""
    path = REPO_ROOT / "BENCH_rng.json"
    if not path.exists():
        _record_smoke("recorded_rng_streams")
        return
    acceptance = json.loads(path.read_text()).get("acceptance", {})
    ok = bool(acceptance.get("passed"))
    _record_smoke("recorded_rng_streams", ok=ok)
    assert ok, f"BENCH_rng.json was recorded failing its acceptance: {acceptance}"


def _serial_fold(call: Callable[[], Any]) -> Any:
    """``call()`` with the engine's fan-out rule pinned to the serial fold."""
    pool.run_groups(list, [None], 1)  # start the pool before patching the rule
    with mock.patch.object(engine, "_fan_out", lambda config, chunks: 1):
        return call()


def _fan_out_rounds(n: int) -> int:
    """The fewest rounds (at least 2) that make ``n`` receivers fan out."""
    return max(2, -(-engine.FAN_OUT_MIN_RECEIVER_ROUNDS // n))


def _expected_workers(chunks: int) -> int:
    return min(chunks, pool.usable_cpus()) if pool.can_fan_out() else 1


def test_counter_zero_copy_smoke():
    """Counter-mode fan-out by default: records bit-identical, zero-copy.

    Forces multiple chunks and enough rounds to fan out at smoke scale,
    and asserts the default run reassembles the serial fold bit for bit
    *including the per-receiver records*, which in counter mode are
    regenerated locally from (seed, chunk, round) coordinates — workers
    ship tallies only.  Bit-identity is asserted at every scale and on
    every core count; there is no wall-clock assertion here at all
    (single-core runners cannot win from fan-out, and the parallel wall
    clock is covered by ``test_chunk_worker_parallel_smoke``).
    """
    scenario = get_scenario(SCENARIO)
    n = min(N_RECEIVERS, 8_000)
    rounds = _fan_out_rounds(n)
    run = lambda: scenario.simulate(
        n,
        seed=ENGINE_SEED,
        task=ENGINE_TASK,
        batch_size=n // 4,
        rounds=rounds,
        rng_mode="counter",
        record_limit=n * rounds,
    )
    serial = _serial_fold(run)
    parallel = run()
    assert parallel.chunks == serial.chunks >= 4
    assert serial.chunk_workers == 1
    assert parallel.chunk_workers == _expected_workers(parallel.chunks)
    assert parallel.tally.summary() == serial.tally.summary()
    assert parallel.funnel.entered == serial.funnel.entered
    assert parallel.funnel.passed == serial.funnel.passed
    assert list(parallel.records) == list(serial.records)
    print(
        f"\n  counter zero-copy: {parallel.chunks} chunks, "
        f"{parallel.chunk_workers} workers, {n:,} receivers x {rounds} rounds "
        f"bit-identical ({pool.usable_cpus()} usable CPUs)"
    )
    _record_smoke("counter_zero_copy")


def test_chunk_worker_parallel_smoke():
    """Default fan-out of a multi-round run: bit-identical always, timed on multicore.

    Determinism is asserted at every scale: the run the engine fans out
    must reassemble the serial fold bit for bit (tallies, round tallies,
    funnel).  The wall-clock comparison is skipped — not failed — on
    single-core runners, where process fan-out cannot win.
    """
    scenario = get_scenario(SCENARIO)
    n = min(N_RECEIVERS, 20_000)
    run = lambda: scenario.simulate(
        n,
        seed=ROUNDS_SEED,
        task=ROUNDS_TASK,
        batch_size=n // 4,
        rounds=_fan_out_rounds(n),
        recovery_rate=ROUNDS_RECOVERY,
    )
    run()  # warm-up
    serial_seconds, serial = best_of(lambda: _serial_fold(run), repeats=1)
    parallel_seconds, parallel = best_of(run, repeats=1)

    assert parallel.chunk_workers == _expected_workers(parallel.chunks)
    assert parallel.tally.summary() == serial.tally.summary()
    assert [tally.summary() for tally in parallel.round_tallies] == [
        tally.summary() for tally in serial.round_tallies
    ]
    assert parallel.funnel.entered == serial.funnel.entered
    assert parallel.funnel.passed == serial.funnel.passed
    print(
        f"\n  default fan-out ({parallel.chunk_workers} workers): serial "
        f"{serial_seconds:.3f}s, parallel {parallel_seconds:.3f}s "
        f"({pool.usable_cpus()} usable CPUs)"
    )
    if not pool.can_fan_out():
        print("  single-core runner: wall-clock comparison skipped, not failed")
        _record_smoke("chunk_worker_parallel")
        return
    # Fan-out pays pickling + process start-up; only a gross regression
    # (worse than 4x serial) indicates the parallel path is broken.
    assert parallel_seconds < 4.0 * serial_seconds, (
        f"fan-out took {parallel_seconds:.3f}s vs serial "
        f"{serial_seconds:.3f}s — parallel path regressed grossly"
    )
    _record_smoke("chunk_worker_parallel")


def test_shard_backend_floor():
    """Sharded sweep throughput must stay above half the recorded rate.

    Also the two-shard merge smoke: at *any* scale, the merged shards
    (including their checkpoint JSONL round-trip) must reassemble the
    serial run bit for bit.
    """
    from repro.experiments import (
        Experiment,
        ResultSet,
        SerialBackend,
        ShardBackend,
        SweepSpec,
    )

    def canonical(resultset):
        """Result-set dict modulo per-row wall-clock telemetry (the one
        canonical filter: ``ResultSet.canonical_dict``)."""
        return resultset.canonical_dict()

    experiment = Experiment.from_sweep(
        "password-shard-scaling",
        SweepSpec(scenario="passwords", grid=SHARD_GRID),
        n_receivers=N_SHARD_RECEIVERS,
        seed=SHARD_SEED,
        task="recall-passwords",
    )
    serial = experiment.run(backend=SerialBackend())  # warm-up + correctness anchor

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="floor-shards-") as checkpoint_dir:
        shard_sets = [
            experiment.run(
                backend=ShardBackend(index, SHARD_COUNT, checkpoint_dir=checkpoint_dir)
            )
            for index in range(SHARD_COUNT)
        ]
    seconds = time.perf_counter() - start
    merged = ResultSet.merge(*shard_sets)
    assert canonical(merged) == canonical(serial)

    total = len(experiment.variants) * N_SHARD_RECEIVERS
    rate = total / seconds
    recorded = _recorded_shard_rate()
    print(f"\n  sharded sweep: {rate:,.0f} receivers/s (recorded: {recorded})")
    _check_floor(
        "sharded_sweep", rate, recorded,
        engaged=recorded is not None and total >= recorded[0],
    )


def _recorded_scheduler_rate() -> Optional[Tuple[int, float]]:
    """(total_receivers, receivers_per_sec) recorded for the fleet run."""
    path = REPO_ROOT / "BENCH_scheduler.json"
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    return (
        int(payload.get("total_receivers", 0)),
        float(payload.get("fleet", {}).get("receivers_per_sec", 0.0)),
    )


def test_scheduler_floor():
    """Scheduled-fleet throughput must stay above half the recorded rate.

    Doubles as the kill-one-worker smoke: the fleet runs with one worker
    hard-killed mid-shard by the deterministic fault injector, and the
    merged set must still be bit-identical (modulo ``WALL_CLOCK_METRICS``)
    to the serial run at *any* scale.  Only the throughput floor is
    scale-gated; on single-core runners the recorded multi-core rate is
    never engaged, so the wall clock is observed, not asserted.
    """
    import tempfile as _tempfile

    from repro.cluster import (
        FaultInjector,
        LocalProcessFleet,
        ShardScheduler,
        read_scheduler_events,
    )
    from repro.experiments import Experiment, SerialBackend, SweepSpec

    experiment = Experiment.from_sweep(
        "password-scheduler-bench",
        SweepSpec(scenario="passwords", grid=SHARD_GRID),
        n_receivers=N_SCHEDULER_RECEIVERS,
        seed=SHARD_SEED,
        task="recall-passwords",
    )
    serial = experiment.run(backend=SerialBackend())  # warm-up + anchor

    start = time.perf_counter()
    with _tempfile.TemporaryDirectory(prefix="floor-scheduler-") as checkpoint_dir:
        scheduler = ShardScheduler(
            experiment,
            shard_count=4,
            checkpoint_dir=checkpoint_dir,
            transport=LocalProcessFleet(max_workers=2),
            heartbeat_timeout=120.0,
            poll_interval=0.02,
            backoff_base=0.05,
            backoff_cap=0.2,
            fault_injector=FaultInjector(shards=(1,), kill_after_rows=1),
        )
        merged = scheduler.run()
        seconds = time.perf_counter() - start
        assert merged.canonical_dict() == serial.canonical_dict()
        failures = read_scheduler_events(checkpoint_dir, kind="worker-failed")
        assert len(failures) == 1, "the injected kill must be visible"
        assert len(read_scheduler_events(checkpoint_dir, kind="requeued")) == 1

    total = len(experiment.variants) * N_SCHEDULER_RECEIVERS
    rate = total / seconds
    recorded = _recorded_scheduler_rate()
    print(f"\n  scheduled fleet: {rate:,.0f} receivers/s (recorded: {recorded})")
    _check_floor(
        "scheduled_fleet", rate, recorded,
        engaged=recorded is not None and total >= recorded[0],
    )


def test_funnel_metrics_smoke():
    """Small-N end-to-end smoke of the per-stage funnel metrics."""
    result = get_scenario(SCENARIO).simulate(
        2_000, seed=7, task=ROUNDS_TASK, rounds=3, recovery_rate=0.2
    )
    funnel = result.funnel
    assert funnel is not None and funnel.n == 6_000
    entered = list(funnel.entered)
    assert entered == sorted(entered, reverse=True), "funnel must narrow monotonically"
    assert funnel.survival_rate("behavior") == result.heed_rate()
    assert 0.0 <= funnel.conditional_failure_rate(Stage.ATTENTION_SWITCH.value) <= 1.0
    assert len(result.round_funnels) == 3
    # The habituation signature: attention survival erodes round over round.
    survival = result.round_funnel_metric(Stage.ATTENTION_SWITCH.value)
    assert survival[-1] < survival[0]
    _record_smoke("funnel_metrics")


def main() -> None:
    test_counter_mode_floor()
    test_matrix_mode_floor()
    test_recorded_counter_vs_matrix_ratio()
    test_recorded_rng_streams_acceptance()
    test_shard_backend_floor()
    test_scheduler_floor()
    test_chunk_worker_parallel_smoke()
    test_counter_zero_copy_smoke()
    test_funnel_metrics_smoke()
    _print_summary()


if __name__ == "__main__":
    main()
