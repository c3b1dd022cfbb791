"""Benchmark: multi-core sweep throughput of the experiment layer.

Expands a 16-variant password-policy grid (distinct accounts × expiry ×
single sign-on) through :mod:`repro.experiments`, runs it serially and
through the process-parallel runner, verifies the two executions produce
identical results (per-variant seeded streams make execution order
irrelevant), and writes the timing report to ``BENCH_sweep.json`` at the
repository root.

On a multi-core machine the parallel run must beat the serial run; on a
single-core container the speedup is physically impossible, so the
benchmark records the core count and asserts only determinism (the
``parallel`` block in the report says which regime was measured).

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
import time
from pathlib import Path
from typing import Dict

from repro.experiments import Experiment, ProcessBackend, ResultSet, SweepSpec

SEED = 20080301
N_RECEIVERS = int(os.environ.get("BENCH_SWEEP_N", "40000"))
MAX_WORKERS = 4
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


def available_workers() -> int:
    """Pool size for the parallel leg: at least 2 so the process pool is
    genuinely exercised (and its determinism checked) even on one core."""
    cores = os.cpu_count() or 1
    return max(2, min(MAX_WORKERS, cores))


def measure_sweep() -> Dict[str, object]:
    """Time the sweep serially and in parallel; build the report payload."""
    experiment = _experiment()

    # Warm-up outside the timed region (imports, first-call numpy setup).
    Experiment.from_sweep(
        "warmup", GRID, n_receivers=1_000, seed=SEED, task="recall-passwords"
    ).run()

    start = time.perf_counter()
    serial = experiment.run()
    serial_seconds = time.perf_counter() - start

    workers = available_workers()
    start = time.perf_counter()
    parallel = experiment.run(backend=ProcessBackend(max_workers=workers))
    parallel_seconds = time.perf_counter() - start

    # Bit-identity modulo WALL_CLOCK_METRICS, the per-row machine-time
    # telemetry that differs between any two runs by design.
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
        "serial": {
            "seconds": round(serial_seconds, 6),
            "receivers_per_sec": round(total_receivers / serial_seconds, 1),
        },
        "parallel": {
            "cpu_count": os.cpu_count() or 1,
            "workers": workers,
            "seconds": round(parallel_seconds, 6),
            "receivers_per_sec": round(total_receivers / parallel_seconds, 1),
            "speedup": round(serial_seconds / parallel_seconds, 3),
            "beats_serial": parallel_seconds < serial_seconds,
            "multi_core": (os.cpu_count() or 1) > 1,
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
    """≥12-variant sweep, deterministic across executors; parallel wins on multi-core."""
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
            f"parallel ({parallel['workers']} workers) took {parallel['seconds']:.2f}s "
            f"vs serial {report['serial']['seconds']:.2f}s"
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
        f"({parallel['workers']} workers, speedup {parallel['speedup']:.2f}x)"
    )
    if not parallel["multi_core"]:
        print("  note: single-core machine — speedup not expected; determinism checked")


if __name__ == "__main__":
    main()
