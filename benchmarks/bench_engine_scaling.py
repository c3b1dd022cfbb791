"""Benchmark: batch-engine throughput, matrix vs counter draws, and small N.

Runs the anti-phishing scenario (IE active warning, calibrated
general-web population) through the vectorized batch engine and writes
``BENCH_engine.json`` at the repository root with two measurements that
``perfbench`` (whose ``engine_single`` workload times the default engine
at 100k receivers) does not take:

* **matrix vs counter head-to-head.**  Both draw sources at 100k
  receivers, interleaved so machine noise hits both equally, each
  reported as its per-mode *median* so no mode wins by catching one
  lucky quiet slice.  The recorded ``counter_vs_matrix_ratio`` is the
  number that justified ``rng_mode="counter"`` as the default (the floor
  check enforces >= 1.0 on the committed recording), and the two rates
  are the matrix and counter floors.  Shared-runner noise can still push
  a single run around; regenerate this file on a quiet machine and
  re-run if a noisy ratio lands below 1.
* **small-N guard.**  Per-call setup (plan construction, chunk
  bookkeeping) once cost small sweep variants ~25x the per-receiver rate
  of a 100k run.  At 250 receivers the engine default must keep at least
  10% of the counter-mode 100k rate.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_scaling.py -q
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path
from typing import Dict, List

from _timing import timed, utc_timestamp
from repro.systems import get_scenario

SEED = 20080124
SCENARIO = "antiphishing"
TASK = "heed-ie_active-warning"
FULL_N = 100_000
SMALL_N = 250
SMALL_N_MIN_FRACTION = 0.1  # small-N rate must keep >= 10% of the 100k rate
MODE_REPEATS = 9  # interleaved repeats of every measurement
#: Live-run tolerance for counter >= matrix: a single noisy run may land a
#: few percent under parity without meaning a regression; the strict
#: >= 1.0 floor applies to the committed recording (bench_floor_check).
MODE_RATIO_TOLERANCE = 0.9
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def measure_scaling() -> Dict[str, object]:
    """Time the head-to-head and the small-N point; build the report payload."""
    scenario = get_scenario(SCENARIO)
    task = scenario.task(TASK)
    population = scenario.population()
    simulator = scenario.simulator(seed=SEED)

    def run(n_receivers: int, rng_mode: str = "counter"):
        return simulator.simulate_task(
            task, population, n_receivers=n_receivers, seed=SEED, rng_mode=rng_mode
        )

    # Warm-up outside the timed region (imports, first-call numpy setup).
    run(1_000)

    # Interleaved repeats so scheduler noise hits every measurement
    # equally, and the *median* per measurement rather than the minimum:
    # on a shared machine min() rewards whichever side caught the one
    # quiet slice, while the median pairs like with like.
    samples: Dict[str, List[float]] = {"matrix": [], "counter": [], "small_n": []}
    results = {}
    for _ in range(MODE_REPEATS):
        for rng_mode in ("matrix", "counter"):
            elapsed, results[rng_mode] = timed(lambda m=rng_mode: run(FULL_N, m))
            samples[rng_mode].append(elapsed)
        elapsed, results["small_n"] = timed(lambda: run(SMALL_N))
        samples["small_n"].append(elapsed)
    seconds = {key: statistics.median(elapsed) for key, elapsed in samples.items()}

    def _row(key: str, n_receivers: int, rng_mode: str) -> Dict[str, object]:
        return {
            "rng_mode": rng_mode,
            "n_receivers": n_receivers,
            "seconds": round(seconds[key], 6),
            "receivers_per_sec": round(n_receivers / seconds[key], 1),
            "protection_rate": round(results[key].protection_rate(), 4),
        }

    return {
        "benchmark": "engine_scaling",
        "scenario": SCENARIO,
        "task": TASK,
        "seed": SEED,
        "mode": "batch",
        "cpu_count": os.cpu_count(),
        "recorded_at": utc_timestamp(),
        "small_n": _row("small_n", SMALL_N, "counter"),
        "matrix_mode": _row("matrix", FULL_N, "matrix"),
        "counter_mode": _row("counter", FULL_N, "counter"),
        "counter_vs_matrix_ratio": round(seconds["matrix"] / seconds["counter"], 4),
    }


def write_report(report: Dict[str, object]) -> Path:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return OUTPUT


def test_engine_scaling_writes_report():
    """Small-N guard and counter >= matrix hold; report lands in BENCH_engine.json."""
    report = measure_scaling()
    path = write_report(report)

    assert path.exists()
    small_rate = report["small_n"]["receivers_per_sec"]
    full_rate = report["counter_mode"]["receivers_per_sec"]
    # The small-N cliff stays fixed: per-call setup must not eat more
    # than ~10x of the full-scale per-receiver rate at n=250.
    assert small_rate >= SMALL_N_MIN_FRACTION * full_rate, (
        f"small-N cliff: n={SMALL_N} ran at {small_rate:,.0f} receivers/s, "
        f"below {SMALL_N_MIN_FRACTION:.0%} of the full-scale "
        f"{full_rate:,.0f} receivers/s"
    )
    # The default flip's justification: counter mode must not fall behind
    # the matrix source it replaced (tolerance for single-run noise; the
    # committed recording is held to >= 1.0 by bench_floor_check).
    ratio = report["counter_vs_matrix_ratio"]
    assert ratio >= MODE_RATIO_TOLERANCE, (
        f"counter mode ran at {ratio:.3f}x the matrix rate "
        f"(tolerance {MODE_RATIO_TOLERANCE}) — the default rng source "
        "has regressed below its predecessor"
    )


def main() -> None:
    report = measure_scaling()
    path = write_report(report)
    print(f"wrote {path} ({report['cpu_count']} cores)")
    for key in ("small_n", "matrix_mode", "counter_mode"):
        row = report[key]
        print(
            f"  n={row['n_receivers']:>7,}  {row['seconds']:>8.3f}s  "
            f"{row['receivers_per_sec']:>12,.0f} receivers/s  "
            f"(rng_mode={row['rng_mode']})"
        )
    print(f"  counter vs matrix: {report['counter_vs_matrix_ratio']:.3f}x")


if __name__ == "__main__":
    main()
