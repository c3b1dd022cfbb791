"""Benchmark: sharded sweep execution vs. the serial backend.

Expands an 8-variant password-policy grid through :mod:`repro.experiments`,
runs it once through :class:`SerialBackend`, then splits it across
``SHARD_COUNT`` :class:`ShardBackend` invocations (one per simulated
host) with append-only JSONL checkpointing, merges the partial result
sets via :meth:`ResultSet.merge`, and writes the timing report to
``BENCH_shards.json`` at the repository root.

The numbers that matter:

* per-shard wall time — the cluster wall-clock when shards run on
  separate hosts is the **maximum**, not the sum;
* merge + checkpoint-IO overhead, which must stay a rounding error next
  to the simulation itself; and
* ``deterministic_across_backends`` — the merged shards must be
  bit-identical to the serial run (asserted, not just recorded).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_shard_scaling.py -q

``BENCH_SHARDS_N`` (receivers per variant, default 20000) shrinks the
run for CI smoke checks.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict

from repro.experiments import Experiment, ResultSet, SerialBackend, ShardBackend, SweepSpec
from repro.io import load_checkpoint

SEED = 20260726
N_RECEIVERS = int(os.environ.get("BENCH_SHARDS_N", "20000"))
SHARD_COUNT = 2
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_shards.json"

GRID = SweepSpec(
    scenario="passwords",
    grid={
        "distinct_accounts": [4, 8, 12, 16],
        "single_sign_on": [False, True],
    },
)


def _experiment() -> Experiment:
    return Experiment.from_sweep(
        "password-shard-scaling",
        GRID,
        n_receivers=N_RECEIVERS,
        seed=SEED,
        task="recall-passwords",
    )


def measure_shards() -> Dict[str, object]:
    """Time the serial run and the sharded run; build the report payload."""
    experiment = _experiment()

    # Warm-up outside the timed region (imports, first-call numpy setup).
    Experiment.from_sweep(
        "warmup", GRID, n_receivers=1_000, seed=SEED, task="recall-passwords"
    ).run()

    start = time.perf_counter()
    serial = experiment.run(backend=SerialBackend())
    serial_seconds = time.perf_counter() - start

    shard_reports = []
    shard_sets = []
    with tempfile.TemporaryDirectory(prefix="bench-shards-") as checkpoint_dir:
        for index in range(SHARD_COUNT):
            backend = ShardBackend(
                shard_index=index,
                shard_count=SHARD_COUNT,
                checkpoint_dir=checkpoint_dir,
            )
            start = time.perf_counter()
            partial = experiment.run(backend=backend)
            seconds = time.perf_counter() - start
            receivers = len(partial) * N_RECEIVERS
            shard_sets.append(partial)
            shard_reports.append(
                {
                    "shard_index": index,
                    "n_rows": len(partial),
                    "seconds": round(seconds, 6),
                    "receivers_per_sec": round(receivers / seconds, 1),
                }
            )
        checkpoint_bytes = sum(
            path.stat().st_size for path, _, _ in load_checkpoint(checkpoint_dir)
        )

    start = time.perf_counter()
    merged = ResultSet.merge(*shard_sets)
    merge_seconds = time.perf_counter() - start

    # Bit-identity modulo WALL_CLOCK_METRICS — the canonical filter; the
    # raw dicts differ in per-row machine-time telemetry by design.
    deterministic = merged.canonical_dict() == serial.canonical_dict()
    total_receivers = len(experiment.variants) * N_RECEIVERS
    sharded_seconds = sum(report["seconds"] for report in shard_reports)
    return {
        "benchmark": "shard_scaling",
        "scenario": "passwords",
        "grid_axes": {name: list(values) for name, values in GRID.grid.items()},
        "n_variants": len(experiment.variants),
        "n_receivers_per_variant": N_RECEIVERS,
        "total_receivers": total_receivers,
        "seed": SEED,
        "shard_count": SHARD_COUNT,
        "cpu_count": os.cpu_count(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "serial": {
            "seconds": round(serial_seconds, 6),
            "receivers_per_sec": round(total_receivers / serial_seconds, 1),
        },
        "sharded": {
            "seconds_total": round(sharded_seconds, 6),
            "seconds_wall_if_parallel_hosts": round(
                max(report["seconds"] for report in shard_reports), 6
            ),
            "receivers_per_sec": round(total_receivers / sharded_seconds, 1),
            "overhead_vs_serial": round(sharded_seconds / serial_seconds, 3),
            "shards": shard_reports,
        },
        "merge": {"seconds": round(merge_seconds, 6), "n_rows": len(merged)},
        "checkpoint": {"files": SHARD_COUNT, "bytes": checkpoint_bytes},
        "deterministic_across_backends": deterministic,
        "variants": [
            {
                "variant": row.variant,
                "variant_hash": row.variant_hash,
                "seed": row.seed,
                "protection_rate": round(row.metric("protection_rate"), 4),
            }
            for row in serial
        ],
    }


def write_report(report: Dict[str, object]) -> Path:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return OUTPUT


def test_shard_scaling_writes_report():
    """2-shard run covers the grid disjointly and merges bit-identically."""
    report = measure_shards()
    path = write_report(report)

    assert path.exists()
    assert report["n_variants"] == 8
    # The shards partition the grid: row counts sum to the variant count.
    shard_rows = [shard["n_rows"] for shard in report["sharded"]["shards"]]
    assert sum(shard_rows) == report["n_variants"]
    # Merged shards must be bit-identical to the serial run.
    assert report["deterministic_across_backends"]
    # Checkpoint files were actually written.
    assert report["checkpoint"]["bytes"] > 0
    # Sharding's bookkeeping (checkpoint IO + merge) must stay cheap: the
    # summed shard time may not blow up over the serial run.
    assert report["sharded"]["overhead_vs_serial"] < 2.0


def main() -> None:
    report = measure_shards()
    path = write_report(report)
    print(f"wrote {path}")
    print(
        f"  grid: {report['n_variants']} variants x "
        f"{report['n_receivers_per_variant']:,} receivers, "
        f"{report['shard_count']} shards"
    )
    print(
        f"  serial:  {report['serial']['seconds']:>8.3f}s  "
        f"{report['serial']['receivers_per_sec']:>12,.0f} receivers/s"
    )
    sharded = report["sharded"]
    print(
        f"  sharded: {sharded['seconds_total']:>8.3f}s total "
        f"({sharded['seconds_wall_if_parallel_hosts']:.3f}s wall on "
        f"{report['shard_count']} hosts)  "
        f"{sharded['receivers_per_sec']:>12,.0f} receivers/s"
    )
    print(
        f"  merge:   {report['merge']['seconds']:>8.3f}s for "
        f"{report['merge']['n_rows']} rows; checkpoints "
        f"{report['checkpoint']['bytes']:,} bytes"
    )
    print(f"  deterministic across backends: {report['deterministic_across_backends']}")


if __name__ == "__main__":
    main()
