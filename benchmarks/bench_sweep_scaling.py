"""Benchmark: multi-core sweep throughput of the experiment layer.

Expands a 16-variant password-policy grid (distinct accounts × expiry ×
single sign-on) through :mod:`repro.experiments`, runs it serially and
through ``ProcessBackend()`` on the shared local process pool, verifies
the two executions produce identical results (per-variant seeded streams
make execution order irrelevant), and writes the timing report to
``BENCH_sweep.json`` at the repository root.

The two legs alternate, ``PAIRS`` times each after one warm-up of both
(which starts the pool), and the report compares their medians, so a
slow moment on a shared host hits both legs alike.  With two usable
CPUs the parallel median must beat the serial one; with one the speedup
is physically impossible, so the benchmark records the CPU count and
asserts only determinism (the ``parallel`` block in the report says
which regime was measured).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sweep_scaling.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_sweep_scaling.py -q

``BENCH_SWEEP_N`` (receivers per variant, default 40000) shrinks the run
for CI smoke checks.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from typing import Dict

from _timing import timed
from repro.experiments import Experiment, ProcessBackend, SweepSpec
from repro.simulation import pool

SEED = 20080301
N_RECEIVERS = int(os.environ.get("BENCH_SWEEP_N", "40000"))
#: Alternating serial/parallel runs behind each median.
PAIRS = 5
# Below this per-variant size the real work is thin enough that process
# startup + IPC noise on a busy runner can flip the timing comparison, so
# the speedup assertion only engages for full-size runs.
SPEEDUP_ASSERT_MIN_N = 20_000
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

GRID = SweepSpec(
    scenario="passwords",
    grid={
        "distinct_accounts": [4, 8, 12, 16],
        "expiry_days": [None, 90],
        "single_sign_on": [False, True],
    },
)


def _experiment() -> Experiment:
    return Experiment.from_sweep(
        "password-policy-sweep-scaling",
        GRID,
        n_receivers=N_RECEIVERS,
        seed=SEED,
        task="recall-passwords",
        seed_strategy="per-variant",
    )


def measure_sweep() -> Dict[str, object]:
    """Time the sweep serially and on the pool; build the report payload."""
    experiment = _experiment()

    # Warm-up outside the timed region: imports, first-call numpy set-up
    # and the pool's start.
    warmup = Experiment.from_sweep(
        "warmup", GRID, n_receivers=1_000, seed=SEED, task="recall-passwords"
    )
    warmup.run()
    warmup.run(backend=ProcessBackend())

    serial_times, parallel_times = [], []
    for _ in range(PAIRS):
        elapsed, serial = timed(experiment.run)
        serial_times.append(elapsed)
        elapsed, parallel = timed(lambda: experiment.run(backend=ProcessBackend()))
        parallel_times.append(elapsed)
    serial_seconds = statistics.median(serial_times)
    parallel_seconds = statistics.median(parallel_times)

    # Bit-identity modulo execution telemetry (timings, chunk_workers),
    # which differs between any two runs by design.
    deterministic = serial.canonical_dict() == parallel.canonical_dict()
    total_receivers = len(experiment.variants) * N_RECEIVERS
    return {
        "benchmark": "sweep_scaling",
        "scenario": "passwords",
        "grid_axes": {name: list(values) for name, values in GRID.grid.items()},
        "n_variants": len(experiment.variants),
        "n_receivers_per_variant": N_RECEIVERS,
        "total_receivers": total_receivers,
        "seed": SEED,
        "seed_strategy": "per-variant",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "pairs": PAIRS,
        "serial": {
            "seconds": round(serial_seconds, 6),
            "receivers_per_sec": round(total_receivers / serial_seconds, 1),
            "runs_seconds": [round(seconds, 6) for seconds in serial_times],
        },
        "parallel": {
            "backend": "ProcessBackend()",
            "cpu_count": pool.usable_cpus(),
            "workers": pool.usable_cpus(),
            "seconds": round(parallel_seconds, 6),
            "receivers_per_sec": round(total_receivers / parallel_seconds, 1),
            "runs_seconds": [round(seconds, 6) for seconds in parallel_times],
            "speedup": round(serial_seconds / parallel_seconds, 3),
            "beats_serial": parallel_seconds < serial_seconds,
            "multi_core": pool.can_fan_out(),
        },
        "deterministic_across_executors": deterministic,
        "variants": [
            {
                "variant": row.variant,
                "seed": row.seed,
                "protection_rate": round(row.metric("protection_rate"), 4),
            }
            for row in serial
        ],
    }


def write_report(report: Dict[str, object]) -> Path:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return OUTPUT


def test_sweep_scaling_writes_report():
    """≥12-variant sweep, deterministic across executors; the pool's median wins on multi-core."""
    report = measure_sweep()
    path = write_report(report)

    assert path.exists()
    assert report["n_variants"] >= 12
    # Serial and parallel executions must be bit-identical — per-variant
    # seeded streams make the numbers independent of execution order.
    assert report["deterministic_across_executors"]
    # Every variant carries its own derived seed (provenance for exact re-runs).
    seeds = [entry["seed"] for entry in report["variants"]]
    assert len(set(seeds)) == len(seeds)

    parallel = report["parallel"]
    if parallel["multi_core"] and N_RECEIVERS >= SPEEDUP_ASSERT_MIN_N:
        assert parallel["beats_serial"], (
            f"parallel ({parallel['workers']} workers) took a median "
            f"{parallel['seconds']:.2f}s vs serial {report['serial']['seconds']:.2f}s"
        )


def main() -> None:
    report = measure_sweep()
    path = write_report(report)
    print(f"wrote {path}")
    print(
        f"  grid: {report['n_variants']} variants x "
        f"{report['n_receivers_per_variant']:,} receivers"
    )
    print(
        f"  serial:   {report['serial']['seconds']:>8.3f}s  "
        f"{report['serial']['receivers_per_sec']:>12,.0f} receivers/s"
    )
    parallel = report["parallel"]
    print(
        f"  parallel: {parallel['seconds']:>8.3f}s  "
        f"{parallel['receivers_per_sec']:>12,.0f} receivers/s "
        f"({parallel['workers']} workers, speedup {parallel['speedup']:.2f}x, "
        f"medians of {report['pairs']} alternating runs)"
    )
    if not parallel["multi_core"]:
        print("  note: single-core machine — speedup not expected; determinism checked")


if __name__ == "__main__":
    main()
