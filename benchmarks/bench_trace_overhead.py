"""Benchmark: cost of the stage-outcome trace layer.

Runs the multi-round workload of ``perfbench``'s ``engine_rounds``
(anti-phishing IE passive warning, 100k receivers x 10 rounds) with the
per-stage funnel trace disabled (``trace=False``) and enabled, the two
settings alternating call by call, and records each setting's best-of-3
throughput plus their ratio in ``BENCH_trace.json`` at the repository
root.

Acceptance criteria tracked here (asserted at full size only):

* **trace-off is free**: disabling the trace must keep at least 90% of
  the trace-off throughput in the committed ``BENCH_trace.json`` (read
  before this run overwrites it) — i.e. a change did not tax the
  untraced hot path.
* **trace-on is cheap**: the traced run must keep at least 90% of the
  untraced throughput.  The fused-trace kernel (PR 6) computes the
  funnel counts inside the stage traversal — ``trace="counts"`` — so
  tracing no longer allocates the full per-stage boolean trace just to
  reduce it to eight integers.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_trace_overhead.py -q

``BENCH_TRACE_N`` / ``BENCH_TRACE_ROUNDS`` shrink the run for CI smoke
checks; the throughput assertions only engage at full size.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from _timing import timed, utc_timestamp
from repro.systems import get_scenario

SEED = 20080326
SCENARIO = "antiphishing"
TASK = "heed-ie_passive-warning"
N_RECEIVERS = int(os.environ.get("BENCH_TRACE_N", "100000"))
ROUNDS = int(os.environ.get("BENCH_TRACE_ROUNDS", "10"))
RECOVERY_RATE = 0.1
ACCEPTANCE_N = 100_000
ACCEPTANCE_ROUNDS = 10
TRACE_OFF_FLOOR_VS_RECORDED = 0.90
TRACE_ON_FLOOR_VS_OFF = 0.90
REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_trace.json"


def _rates(repeats: int = 3) -> Dict[bool, Dict[str, float]]:
    """Best-of-``repeats`` receiver-rounds/second per trace setting.

    The two settings alternate (off, on, off, on, ...), so a slow or fast
    spell of the host lands on both rather than on whichever ran second.
    """
    scenario = get_scenario(SCENARIO)
    best = {False: float("inf"), True: float("inf")}
    results: Dict[bool, Any] = {}
    for _ in range(repeats):
        for trace in (False, True):
            elapsed, result = timed(
                lambda: scenario.simulate(
                    N_RECEIVERS,
                    seed=SEED,
                    task=TASK,
                    rounds=ROUNDS,
                    recovery_rate=RECOVERY_RATE,
                    trace=trace,
                )
            )
            best[trace] = min(best[trace], elapsed)
            results.setdefault(trace, result)
    return {
        trace: {
            "seconds": round(best[trace], 6),
            "receiver_rounds_per_sec": round(
                results[trace].receiver_rounds / best[trace], 1
            ),
            "has_funnel": results[trace].funnel is not None,
        }
        for trace in (False, True)
    }


def _recorded_trace_off_rate() -> Optional[float]:
    """The trace-off rate of the committed full-size recording, if any."""
    if not OUTPUT.exists():
        return None
    payload = json.loads(OUTPUT.read_text())
    if (payload.get("n_receivers"), payload.get("rounds")) != (ACCEPTANCE_N, ACCEPTANCE_ROUNDS):
        return None  # a smoke-size recording is no baseline
    return float(payload.get("trace_off", {}).get("receiver_rounds_per_sec", 0.0)) or None


def measure_trace_overhead() -> Dict[str, object]:
    recorded = _recorded_trace_off_rate()  # before write_report overwrites it
    scenario = get_scenario(SCENARIO)
    # Warm-up outside the timed region.
    scenario.simulate(1_000, seed=SEED, task=TASK, rounds=3, recovery_rate=RECOVERY_RATE)

    rates = _rates()
    off, on = rates[False], rates[True]
    full_size = N_RECEIVERS >= ACCEPTANCE_N and ROUNDS >= ACCEPTANCE_ROUNDS
    on_vs_off = on["receiver_rounds_per_sec"] / off["receiver_rounds_per_sec"]
    off_vs_recorded = (
        off["receiver_rounds_per_sec"] / recorded if recorded else None
    )
    return {
        "benchmark": "trace_overhead",
        "scenario": SCENARIO,
        "task": TASK,
        "seed": SEED,
        "n_receivers": N_RECEIVERS,
        "rounds": ROUNDS,
        "recovery_rate": RECOVERY_RATE,
        "cpu_count": os.cpu_count(),
        "recorded_at": utc_timestamp(),
        "trace_off": off,
        "trace_on": on,
        "trace_on_vs_off": round(on_vs_off, 4),
        "recorded_trace_off_rate": recorded,
        "trace_off_vs_recorded": (
            round(off_vs_recorded, 4) if off_vs_recorded is not None else None
        ),
        "acceptance": {
            "measured_at_full_size": full_size,
            "trace_off_floor_vs_recorded": TRACE_OFF_FLOOR_VS_RECORDED,
            "trace_on_floor_vs_off": TRACE_ON_FLOOR_VS_OFF,
            "passed": (not full_size) or (
                (off_vs_recorded is None or off_vs_recorded >= TRACE_OFF_FLOOR_VS_RECORDED)
                and on_vs_off >= TRACE_ON_FLOOR_VS_OFF
            ),
        },
    }


def write_report(report: Dict[str, object]) -> Path:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return OUTPUT


def test_trace_overhead_writes_report():
    report = measure_trace_overhead()
    path = write_report(report)
    assert path.exists()
    assert report["trace_on"]["has_funnel"] is True
    assert report["trace_off"]["has_funnel"] is False
    acceptance = report["acceptance"]
    assert acceptance["passed"], (
        f"trace overhead out of bounds: trace-off/recorded="
        f"{report['trace_off_vs_recorded']}, trace-on/off={report['trace_on_vs_off']}"
    )


def main() -> None:
    report = measure_trace_overhead()
    path = write_report(report)
    print(f"wrote {path}")
    print(
        f"  trace off  {report['trace_off']['receiver_rounds_per_sec']:,.0f} rr/s   "
        f"trace on  {report['trace_on']['receiver_rounds_per_sec']:,.0f} rr/s   "
        f"(on/off {report['trace_on_vs_off']:.2f})"
    )
    if report["trace_off_vs_recorded"] is not None:
        print(
            f"  trace-off vs recorded trace-off rate: "
            f"{report['trace_off_vs_recorded']:.2f}"
        )
    status = "PASS" if report["acceptance"]["passed"] else "FAIL"
    scope = (
        "full size"
        if report["acceptance"]["measured_at_full_size"]
        else "smoke size (not asserted)"
    )
    print(f"  acceptance ({scope}) -> {status}")


if __name__ == "__main__":
    main()
