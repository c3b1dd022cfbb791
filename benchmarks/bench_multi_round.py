"""Benchmark: multi-round engine throughput and habituation decay.

Runs the anti-phishing scenario (IE passive warning — the design most
exposed to habituation) through the multi-round batch engine: the same
pre-drawn population advances through repeated hazard encounters while the
engine threads per-receiver exposure state between rounds.  Records
receiver-rounds/second, the per-round notice-rate decay curve, and a
determinism check (two identical runs must agree round by round), then
writes the report to ``BENCH_rounds.json`` at the repository root.

Acceptance criterion tracked here: 100,000 receivers x 10 rounds (one
million receiver-round encounters) must sustain at least 0.5M
receiver-rounds/second.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_multi_round.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_multi_round.py -q

``BENCH_ROUNDS_N`` (receivers, default 100000) and ``BENCH_ROUNDS_ROUNDS``
(rounds, default 10) shrink the run for CI smoke checks; the throughput
assertion only engages at full size, determinism is asserted always.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict

from _timing import timed, utc_timestamp
from repro.systems import get_scenario

SEED = 20080326
SCENARIO = "antiphishing"
TASK = "heed-ie_passive-warning"
N_RECEIVERS = int(os.environ.get("BENCH_ROUNDS_N", "100000"))
ROUNDS = int(os.environ.get("BENCH_ROUNDS_ROUNDS", "10"))
RECOVERY_RATE = 0.1
ACCEPTANCE_N = 100_000
ACCEPTANCE_ROUNDS = 10
ACCEPTANCE_RECEIVER_ROUNDS_PER_SEC = 500_000.0
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_rounds.json"


def _run(scenario):
    return scenario.simulate(
        N_RECEIVERS,
        seed=SEED,
        task=TASK,
        rounds=ROUNDS,
        recovery_rate=RECOVERY_RATE,
    )


def measure_multi_round() -> Dict[str, object]:
    """Time the multi-round engine and build the report payload."""
    scenario = get_scenario(SCENARIO)

    # Warm-up outside the timed region (imports, first-call numpy setup).
    scenario.simulate(1_000, seed=SEED, task=TASK, rounds=3, recovery_rate=RECOVERY_RATE)

    elapsed, result = timed(lambda: _run(scenario))

    rerun = _run(scenario)
    deterministic = (
        result.round_summaries() == rerun.round_summaries()
        and result.outcome_counts() == rerun.outcome_counts()
    )

    receiver_rounds = result.receiver_rounds
    notice_curve = result.round_metric("notice_rate")
    full_size = N_RECEIVERS >= ACCEPTANCE_N and ROUNDS >= ACCEPTANCE_ROUNDS
    rate = receiver_rounds / elapsed
    return {
        "benchmark": "multi_round",
        "scenario": SCENARIO,
        "task": TASK,
        "seed": SEED,
        "mode": "batch",
        "n_receivers": N_RECEIVERS,
        "rounds": ROUNDS,
        "recovery_rate": RECOVERY_RATE,
        "receiver_rounds": receiver_rounds,
        "recorded_at": utc_timestamp(),
        "cpu_count": os.cpu_count(),
        "seconds": round(elapsed, 6),
        "receiver_rounds_per_sec": round(rate, 1),
        "deterministic": deterministic,
        "rounds_series": {
            "notice_rate": [round(value, 4) for value in notice_curve],
            "protection_rate": [
                round(value, 4) for value in result.round_metric("protection_rate")
            ],
        },
        "acceptance": {
            "n_receivers": ACCEPTANCE_N,
            "rounds": ACCEPTANCE_ROUNDS,
            "threshold_receiver_rounds_per_sec": ACCEPTANCE_RECEIVER_ROUNDS_PER_SEC,
            "measured_at_full_size": full_size,
            "receiver_rounds_per_sec": round(rate, 1),
            "passed": (not full_size) or rate >= ACCEPTANCE_RECEIVER_ROUNDS_PER_SEC,
        },
    }


def write_report(report: Dict[str, object]) -> Path:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return OUTPUT


def test_multi_round_writes_report():
    """Throughput above threshold (full size), determinism and decay always."""
    report = measure_multi_round()
    path = write_report(report)

    assert path.exists()
    assert report["deterministic"], "two identical multi-round runs diverged"
    notice = report["rounds_series"]["notice_rate"]
    assert notice[-1] < notice[0], "habituation decay absent from the round series"
    acceptance = report["acceptance"]
    assert acceptance["passed"], (
        f"multi-round engine sustained {acceptance['receiver_rounds_per_sec']:,.0f} "
        f"receiver-rounds/s "
        f"(threshold {acceptance['threshold_receiver_rounds_per_sec']:,.0f})"
    )


def main() -> None:
    report = measure_multi_round()
    path = write_report(report)
    print(f"wrote {path}")
    print(
        f"  n={report['n_receivers']:,} x {report['rounds']} rounds  "
        f"{report['seconds']:.3f}s  "
        f"{report['receiver_rounds_per_sec']:,.0f} receiver-rounds/s"
    )
    notice = report["rounds_series"]["notice_rate"]
    print(f"  notice rate round 0 -> {len(notice) - 1}: {notice[0]:.3f} -> {notice[-1]:.3f}")
    acceptance = report["acceptance"]
    status = "PASS" if acceptance["passed"] else "FAIL"
    scope = "full size" if acceptance["measured_at_full_size"] else "smoke size (not asserted)"
    print(
        f"  acceptance ({scope}): "
        f"{acceptance['receiver_rounds_per_sec']:,.0f} receiver-rounds/s "
        f"(>= {acceptance['threshold_receiver_rounds_per_sec']:,.0f}) -> {status}"
    )


if __name__ == "__main__":
    main()
