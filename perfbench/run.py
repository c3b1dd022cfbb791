"""The repository benchmark: run one workload, check its outputs, report its metrics.

    python3 perfbench/run.py --workload engine_single --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository (``src/`` is imported from the
checkout; nothing is installed).  ``--trace 0`` measures the end-to-end
metrics with no wrappers installed; ``--trace 1`` spends half the time
untraced and half traced, and reports per-layer self times plus the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit and the run's provenance.
Everything the run writes goes under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import engine_load
import service_load
from calibration import Sampler, Slowdown
from spans import (
    LAYERS,
    SpanRecorder,
    check_accounting,
    link_server_spans,
    load_spans,
    self_time_report,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("engine_single", "engine_rounds", "service_mixed")
SETUP_SAMPLES = 3
TRACE_SLICES = 6  # untraced and traced time alternate in this many slices each

END_TO_END_UNITS = {
    "receiver_rounds_per_s": "1/s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.share": "ratio"})
    units.update({
        "service.cache.hits": "count",
        "service.cache.misses": "count",
        "service.cache.stores": "count",
        "service.cache.hit_ratio": "ratio",
        "trace.untraced_share": "ratio",
        "trace.overhead": "ratio",
    })
    return units


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scaled_latencies_ms(calls: List[Tuple[float, float]], slowdown: Slowdown) -> List[float]:
    """Each call's latency at the reference host speed (see calibration.py)."""
    return [1000.0 * (end - start) / slowdown.factor(start, end) for start, end in calls]


def scaled_median_s(intervals: List[Tuple[float, float]], slowdown: Slowdown) -> float:
    """Median duration of ``(start, end)`` intervals, at the reference host speed."""
    return statistics.median(
        (end - start) / slowdown.factor(start, end, margin=0.0) for start, end in intervals
    )


def layer_metrics(report: Dict[str, Dict[str, float]], remainder_s: float,
                  wall_s: float) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        for name in ("calls", "self_s", "share"):
            metrics[f"{layer}.{name}"] = report[layer][name]
    metrics["trace.untraced_share"] = remainder_s / wall_s
    return metrics


class Outcome:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []

    def absorb(self, attempted: int, failed: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def note_raw(self, raw_ms: List[float], what: str) -> None:
        """Record the sample count and the unscaled latencies beside the scaled ones."""
        self.notes.append(
            f"latency samples: {len(raw_ms)} {what}; unscaled p50 "
            f"{statistics.median(raw_ms):.3f} ms, p99 {percentile(raw_ms, 0.99):.3f} ms"
        )

    def accounting(self, spans: List[Any], wall_s: float, required: Tuple[str, ...]) -> None:
        report, remainder_s = self_time_report(spans, wall_s)
        self.problems += check_accounting(spans, report, remainder_s, wall_s)
        self.metrics.update(layer_metrics(report, remainder_s, wall_s))
        empty = [layer for layer in required if not report[layer]["calls"]]
        if empty:
            self.notes.append(f"layers with no traced calls: {empty}")


# -- engine workloads ----------------------------------------------------------------


def engine_setup_s(workload: str, seed: int) -> float:
    """Median set-up time of fresh interpreters, at the reference host speed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    intervals = []
    with Sampler() as sampler:
        for index in range(SETUP_SAMPLES):
            completed = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload,
                 str(seed + index)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            ended = time.perf_counter()
            intervals.append((ended - float(completed.stdout.split()[-1]), ended))
        slowdown = Slowdown(sampler.samples())
    return scaled_median_s(intervals, slowdown)


def run_engine(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    seeds = random.Random(seed)
    simulate = engine_load.prepare(workload)
    simulate(seeds.randrange(2**32))  # warm-up
    spec = engine_load.ENGINE_WORKLOADS[workload]
    recorder = SpanRecorder() if trace else None
    phase = engine_load.run_phase(workload, simulate, seeds, seconds, recorder)
    outcome.absorb(phase.attempted, phase.failed, phase.problems)
    slowdown = Slowdown(phase.samples)
    if not trace:
        latencies_ms = scaled_latencies_ms(phase.calls, slowdown)
        work = spec["n_receivers"] * spec["rounds"]
        outcome.metrics = {
            "receiver_rounds_per_s": 1000.0 * work * len(latencies_ms) / sum(latencies_ms),
            "requests_per_s": 1000.0 * len(latencies_ms) / sum(latencies_ms),
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p99_ms": percentile(latencies_ms, 0.99),
            "setup_s": engine_setup_s(workload, seed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        outcome.note_raw([1000.0 * (end - start) for start, end in phase.calls],
                         "simulate_task calls")
        return outcome
    traced_calls = [call for call, traced in zip(phase.calls, phase.traced) if traced]
    untraced_calls = [call for call, traced in zip(phase.calls, phase.traced) if not traced]
    required = ("simulation.traits", "simulation.encounter", "core.pipeline",
                "simulation.metrics", "simulation.engine")
    if spec["rounds"] > 1:
        required += ("simulation.habituation",)
    outcome.accounting(recorder.spans, sum(end - start for start, end in traced_calls),
                       required)
    outcome.metrics.update({
        "service.cache.hits": 0.0, "service.cache.misses": 0.0,
        "service.cache.stores": 0.0, "service.cache.hit_ratio": 0.0,
        "trace.overhead": statistics.mean(scaled_latencies_ms(untraced_calls, slowdown))
        / statistics.mean(scaled_latencies_ms(traced_calls, slowdown)),
    })
    return outcome


# -- service workload ----------------------------------------------------------------


def run_service(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    records: List[service_load.Record] = []

    def spawn(name: str, spans: Any = None) -> service_load.Server:
        data_dir = OUT / f"service-{name}"
        shutil.rmtree(data_dir, ignore_errors=True)
        data_dir.mkdir(parents=True)
        return service_load.Server(service_load.server_argv(ROOT, data_dir, spans), ROOT,
                                   data_dir / "server.log")

    if not trace:
        with Sampler() as sampler:
            setup: List[Tuple[float, float]] = []
            for index in range(SETUP_SAMPLES):
                server = spawn(f"setup{index}")
                setup.append((server.started, server.ready))
                if index < SETUP_SAMPLES - 1:
                    server.stop()
            try:
                service_load.warm(server, seed)
                streams = service_load.client_streams(seed, "timed")
                phase = service_load.run_clients(server, streams, seconds, "timed")
                peak_rss_mb = server.peak_rss_mb()
            finally:
                server.stop()
            slowdown = Slowdown(sampler.samples())
        records += phase.records
        latencies_ms = scaled_latencies_ms([(r.start, r.end) for r in phase.records], slowdown)
        scaled_s = slowdown.scaled_time(phase.started, phase.started + phase.wall_s)
        misses = sum(1 for r in phase.records if r.request.kind == "miss" and r.status == 200)
        outcome.metrics = {
            "receiver_rounds_per_s": misses * service_load.N_RECEIVERS / scaled_s,
            "requests_per_s": len(phase.records) / scaled_s,
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p99_ms": percentile(latencies_ms, 0.99),
            "setup_s": scaled_median_s(setup, slowdown),
            "peak_rss_mb": peak_rss_mb,
        }
        outcome.note_raw([1000.0 * r.latency_s for r in phase.records],
                         f"requests ({misses} simulate misses)")
        outcome.notes.append(f"unscaled requests_per_s {len(phase.records) / phase.wall_s:.3f}")
    else:
        spans_path = OUT / "service-traced-spans.json"
        spans_path.unlink(missing_ok=True)
        recorder = SpanRecorder()
        phases: Dict[str, List[service_load.ServicePhase]] = {"untraced": [], "traced": []}
        with Sampler() as sampler:
            servers = {"untraced": spawn("untraced")}
            try:
                servers["traced"] = spawn("traced", spans_path)
                for server in servers.values():
                    service_load.warm(server, seed)
                before = servers["traced"].health()["cache"]
                streams = {name: service_load.client_streams(seed, name)
                           for name in phases}
                for index in range(TRACE_SLICES):
                    for name, server in servers.items():
                        phases[name].append(service_load.run_clients(
                            server, streams[name], seconds / (2 * TRACE_SLICES),
                            f"{name}{index}", recorder if name == "traced" else None))
                after = servers["traced"].health()["cache"]
            finally:
                for server in servers.values():
                    server.stop()
            slowdown = Slowdown(sampler.samples())
        records += [r for name in phases for p in phases[name] for r in p.records]
        spans = link_server_spans(recorder.spans, load_spans(spans_path))
        required = tuple(layer for layer in LAYERS if layer != "simulation.habituation")
        outcome.accounting(spans, sum(p.thread_s for p in phases["traced"]), required)
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        rates = {
            name: sum(len(p.records) for p in phases[name])
            / sum(slowdown.scaled_time(p.started, p.started + p.wall_s) for p in phases[name])
            for name in phases
        }
        outcome.metrics.update({
            "service.cache.hits": float(hits),
            "service.cache.misses": float(misses),
            "service.cache.stores": float(after["entries"] - before["entries"]),
            "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "trace.overhead": rates["traced"] / rates["untraced"],
        })
    expected = service_load.oracle([record.request.key for record in records])
    failed, problems = service_load.check_records(records, expected)
    outcome.absorb(len(records), failed, problems)
    return outcome


# -- provenance and output -------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30)
    return completed.stdout.strip() or "unknown"


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    if args.workload == "service_mixed":
        params: Dict[str, Any] = {
            "scenario": service_load.SCENARIO,
            "n_receivers": service_load.N_RECEIVERS,
            "hot_set": service_load.HOT_SET,
            "clients": service_load.CLIENTS,
            "miss_client_block": service_load.MISS_CLIENT_BLOCK,
            "read_client_block": service_load.READ_CLIENT_BLOCK,
        }
    else:
        params = dict(engine_load.ENGINE_WORKLOADS[args.workload])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_params": params,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    trace = bool(args.trace)
    if args.workload == "service_mixed":
        outcome = run_service(args.seed, args.seconds, trace)
    else:
        outcome = run_engine(args.workload, args.seed, args.seconds, trace)
    units = per_layer_units() if trace else END_TO_END_UNITS
    metrics = {name: {"value": outcome.metrics[name], "unit": unit}
               for name, unit in units.items()}
    record = {
        "provenance": provenance(args),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / outcome.attempted,
        "problems": outcome.problems,
        "notes": outcome.notes,
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")

    for problem in outcome.problems:
        print(f"problem: {problem}")
    for note in outcome.notes:
        print(f"note: {note}")
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"failed_share: {record['failed_share']} ({outcome.failed} of {outcome.attempted})")
    for metric, entry in metrics.items():
        print(f"{metric}: {entry['value']} {entry['unit']}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
