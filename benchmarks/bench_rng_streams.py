"""Benchmark: raw draw-source rates — matrix fills vs counter streams.

Times the two draw sources the engine can run on, below the engine (no
evaluation, no records), both through the engine's one draw function
(:func:`repro.simulation.batch.draw_batch_counter`): the **matrix**
replay adapter (``MatrixDraws``, the sequential ziggurat/uniform fills)
against the **counter** streams (keyed ``CounterDraws``), at 1k and
100k receivers, interleaved best-of-5 so machine noise hits both sides
equally.  Also records what
the matrix path cannot offer at any price: O(1) point addressing — the
per-query latency of :meth:`CounterDraws.uniform_at` and
:meth:`CounterDraws.clipped_normal_at`, which must stay flat as the
draw width grows 100x.

Context for the recorded ratio: the counter path pays for addressability
(state-keyed streams, dual-output Box–Muller with quarter-wave cosine
folding) and still fills at least as fast as the matrix layout at full
scale.  The matrix column is a replay adapter that is kept correct, not
fast, so this ratio says little about the engine; the *engine-level*
comparison in ``BENCH_engine.json`` is what gated flipping
``SimulationConfig``'s default to ``rng_mode="counter"`` (PR 9).

Results land in ``BENCH_rng.json`` at the repository root.
``BENCH_RNG_N`` caps the top scale (CI smoke).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_rng_streams.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_rng_streams.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from _timing import utc_timestamp
from repro.simulation import batch as batch_module
from repro.simulation.engine import HumanLoopSimulator, SimulationConfig
from repro.simulation.rng import NOISE_STREAMS, CounterDraws, MatrixDraws
from repro.systems import get_scenario

SEED = 20080124
SCENARIO = "antiphishing"
TASK = "heed-ie_active-warning"
TOP_N = int(os.environ.get("BENCH_RNG_N", "100000"))
SCALES = (1_000, TOP_N)
REPEATS = 5
POINT_QUERIES = 200
#: Raw fill-rate floor for the live run: the counter path must stay in
#: the same performance class as the matrix fill (the strict >= 1.0
#: gate applies to the *engine-level* recording, in bench_floor_check).
FILL_RATIO_FLOOR = 0.6
#: O(1) addressing: per-query latency at the top scale may not exceed
#: this multiple of the 1k-scale latency (it is flat in practice).
POINT_LATENCY_GROWTH_CAP = 10.0
POINT_LATENCY_CAP_US = 1_000.0
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_rng.json"


def _interleaved_fill_times(plan, population, count) -> Dict[str, float]:
    """Best-of-``REPEATS`` for both sources, alternating every repeat."""
    best = {"matrix": float("inf"), "counter": float("inf")}
    for _ in range(REPEATS):
        start = time.perf_counter()
        batch_module.draw_batch_counter(plan, population, count, MatrixDraws(SEED))
        best["matrix"] = min(best["matrix"], time.perf_counter() - start)
        start = time.perf_counter()
        batch_module.draw_batch_counter(plan, population, count, CounterDraws(SEED))
        best["counter"] = min(best["counter"], time.perf_counter() - start)
    return best


def _point_latencies_us(count: int) -> Dict[str, float]:
    """Mean per-query latency over ``POINT_QUERIES`` spread-out indices."""
    draws = CounterDraws(SEED)
    indices = list(range(0, count, max(1, count // POINT_QUERIES)))[:POINT_QUERIES]
    draws.uniform_at(0, 0)  # warm the cell's generator
    start = time.perf_counter()
    for index in indices:
        draws.uniform_at(0, index)
    uniform_us = (time.perf_counter() - start) / len(indices) * 1e6
    start = time.perf_counter()
    for index in indices:
        draws.clipped_normal_at(NOISE_STREAMS, 0.0, 0.1, -0.2, 0.2, index, count)
    normal_us = (time.perf_counter() - start) / len(indices) * 1e6
    return {"uniform_at_us": uniform_us, "clipped_normal_at_us": normal_us}


def measure_streams() -> Dict[str, object]:
    """Time both draw sources and the point queries; build the payload."""
    scenario = get_scenario(SCENARIO)
    task = scenario.task(TASK)
    population = scenario.population()
    plan = HumanLoopSimulator(SimulationConfig())._plan_for(task)

    # Warm-up (imports, first-call numpy setup) plus a determinism smoke:
    # the counter source must reproduce itself exactly.
    first = batch_module.draw_batch_counter(
        plan, population, 1_000, CounterDraws(SEED)
    )
    again = batch_module.draw_batch_counter(
        plan, population, 1_000, CounterDraws(SEED)
    )
    np.testing.assert_array_equal(first.decisions, again.decisions)
    batch_module.draw_batch_counter(plan, population, 1_000, MatrixDraws(SEED))

    fills: List[Dict[str, float]] = []
    points: List[Dict[str, float]] = []
    for count in SCALES:
        best = _interleaved_fill_times(plan, population, count)
        fills.append(
            {
                "n_receivers": count,
                "matrix_seconds": round(best["matrix"], 6),
                "counter_seconds": round(best["counter"], 6),
                "matrix_receivers_per_sec": round(count / best["matrix"], 1),
                "counter_receivers_per_sec": round(count / best["counter"], 1),
                "counter_vs_matrix_ratio": round(best["matrix"] / best["counter"], 4),
            }
        )
        latency = _point_latencies_us(count)
        points.append(
            {
                "n_receivers": count,
                "queries": POINT_QUERIES,
                "uniform_at_us": round(latency["uniform_at_us"], 2),
                "clipped_normal_at_us": round(latency["clipped_normal_at_us"], 2),
            }
        )

    top_fill = fills[-1]
    growth = points[-1]["uniform_at_us"] / max(points[0]["uniform_at_us"], 1e-9)
    return {
        "benchmark": "rng_streams",
        "scenario": SCENARIO,
        "task": TASK,
        "seed": SEED,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "recorded_at": utc_timestamp(),
        "fills": fills,
        "point_addressing": points,
        "acceptance": {
            "fill_ratio_floor": FILL_RATIO_FLOOR,
            "fill_ratio_top": top_fill["counter_vs_matrix_ratio"],
            "point_latency_growth": round(growth, 2),
            "point_latency_growth_cap": POINT_LATENCY_GROWTH_CAP,
            "passed": (
                top_fill["counter_vs_matrix_ratio"] >= FILL_RATIO_FLOOR
                and growth <= POINT_LATENCY_GROWTH_CAP
            ),
        },
    }


def write_report(report: Dict[str, object]) -> Path:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return OUTPUT


def test_rng_streams_writes_report():
    """Counter fills in the matrix's class; point addressing stays O(1)."""
    report = measure_streams()
    path = write_report(report)

    assert path.exists()
    acceptance = report["acceptance"]
    assert acceptance["fill_ratio_top"] >= FILL_RATIO_FLOOR, (
        f"counter fill rate fell to {acceptance['fill_ratio_top']:.2f}x the "
        f"matrix rate at the top scale (floor {FILL_RATIO_FLOOR})"
    )
    # O(1) addressing: latency must not scale with the draw width.
    assert acceptance["point_latency_growth"] <= POINT_LATENCY_GROWTH_CAP, (
        f"uniform_at latency grew {acceptance['point_latency_growth']:.1f}x "
        f"from 1k to the top scale — point addressing is no longer O(1)"
    )
    for row in report["point_addressing"]:
        assert row["uniform_at_us"] < POINT_LATENCY_CAP_US
        assert row["clipped_normal_at_us"] < POINT_LATENCY_CAP_US
    assert acceptance["passed"]


def main() -> None:
    report = measure_streams()
    path = write_report(report)
    print(f"wrote {path}")
    for row in report["fills"]:
        print(
            f"  n={row['n_receivers']:>7,}  matrix {row['matrix_seconds']*1e3:>8.2f}ms"
            f"  counter {row['counter_seconds']*1e3:>8.2f}ms"
            f"  ratio {row['counter_vs_matrix_ratio']:.3f}"
        )
    for row in report["point_addressing"]:
        print(
            f"  n={row['n_receivers']:>7,}  uniform_at {row['uniform_at_us']:>7.1f}us"
            f"  clipped_normal_at {row['clipped_normal_at_us']:>7.1f}us"
        )
    acceptance = report["acceptance"]
    status = "PASS" if acceptance["passed"] else "FAIL"
    print(
        f"  acceptance: fill ratio {acceptance['fill_ratio_top']:.3f} "
        f"(floor {FILL_RATIO_FLOOR}), point-latency growth "
        f"{acceptance['point_latency_growth']:.1f}x "
        f"(cap {POINT_LATENCY_GROWTH_CAP:.0f}x) -> {status}"
    )


if __name__ == "__main__":
    main()
