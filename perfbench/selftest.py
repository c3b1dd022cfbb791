"""The benchmark's own tests: its checks must catch wrong outputs.

    python3 perfbench/selftest.py

Not collected by the repository's test suite (the file name does not
match ``test_*.py``); it starts three real loopback servers and takes
about 30 seconds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import statistics
import sys
import unittest
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import engine_load  # noqa: E402
import service_load  # noqa: E402
from calibration import Sampler, Slowdown  # noqa: E402
from run import scaled_latencies_ms  # noqa: E402
from spans import (  # noqa: E402
    SpanRecorder,
    check_accounting,
    link_server_spans,
    self_time_report,
)


class ServiceOracleTest(unittest.TestCase):
    """Wrong responses from a real server are counted, right ones are not."""

    @classmethod
    def setUpClass(cls) -> None:
        data_dir = ROOT / ".perfbench_out" / "selftest-service"
        shutil.rmtree(data_dir, ignore_errors=True)
        data_dir.mkdir(parents=True)
        server = service_load.Server(service_load.server_argv(ROOT, data_dir), ROOT,
                                     data_dir / "server.log")
        try:
            requests = service_load.client_streams(7, "selftest")[0]
            cls.records = []
            for index in range(20):
                request = next(requests)
                status, body, error = service_load.send(
                    server.port, "POST", request.path, request.body)
                cls.records.append(service_load.Record(
                    request, f"selftest-{index}", 0.0, 0.0, status, body, error))
        finally:
            server.stop()
        cls.expected = service_load.oracle([r.request.key for r in cls.records])

    def test_mix_covers_every_kind(self) -> None:
        kinds = {record.request.kind for record in self.records}
        self.assertEqual(kinds, {"hot", "miss", "rehit", "analyze"})

    def test_correct_responses_pass(self) -> None:
        self.assertEqual(service_load.check_records(self.records, self.expected), (0, []))

    def test_corrupted_responses_fail(self) -> None:
        miss = next(r for r in self.records if r.request.kind == "miss")
        analyze = next(r for r in self.records if r.request.kind == "analyze")
        payload = json.loads(miss.body)
        payload["resultset"]["rows"][0]["metrics"]["protection_rate"] += 0.001
        corrupted = [
            dataclasses.replace(miss, body=json.dumps(payload).encode()),
            dataclasses.replace(miss, status=500),
            dataclasses.replace(miss, status=None, body=b"", error="ConnectionResetError"),
            dataclasses.replace(analyze, body=b"{not json"),
        ]
        failed, problems = service_load.check_records(self.records + corrupted, self.expected)
        self.assertEqual(failed, len(corrupted))
        self.assertIn("differs from the oracle", problems[0])

    def test_wall_clock_fields_are_ignored(self) -> None:
        miss = next(r for r in self.records if r.request.kind == "miss")
        payload = json.loads(miss.body)
        row = payload["resultset"]["rows"][0]
        row["metrics"]["perf:elapsed_seconds"] = 123.0
        row["chunk_workers"] = 4
        record = dataclasses.replace(miss, body=json.dumps(payload).encode())
        self.assertEqual(service_load.check_records([record], self.expected)[0], 0)


class EngineCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.result = engine_load.prepare("engine_rounds")(11)

    def test_good_result_passes(self) -> None:
        self.assertEqual(engine_load.check_result(self.result, "engine_rounds"), [])

    def test_broken_tallies_fail(self) -> None:
        for breakage in ("count", "round", "funnel", "negative", "rate"):
            result = dataclasses.replace(self.result)
            result.tally = dataclasses.replace(self.result.tally)
            result.funnel = dataclasses.replace(self.result.funnel)
            if breakage == "count":
                result.tally.n += 1
            elif breakage == "round":
                result.round_tallies = list(self.result.round_tallies)
                result.round_tallies[3] = dataclasses.replace(result.round_tallies[3], n=0)
            elif breakage == "funnel":
                result.funnel.passed = list(result.funnel.passed)
                result.funnel.passed[2] = result.funnel.entered[2] + 1
            elif breakage == "negative":
                result.tally.protected = -1
            else:
                result.tally.protected = result.tally.n // 2
            with self.subTest(breakage=breakage):
                self.assertTrue(engine_load.check_result(result, "engine_rounds"))

    def test_canonical_ignores_timing(self) -> None:
        later = dataclasses.replace(self.result, elapsed_seconds=99.0)
        self.assertEqual(engine_load.canonical(later), engine_load.canonical(self.result))


class SpanAccountingTest(unittest.TestCase):
    def test_self_times_add_up(self) -> None:
        spans = [
            (1, "simulation.engine", 0.0, 10.0, 0, None),
            (2, "simulation.traits", 1.0, 5.0, 1, None),
            (3, "simulation.encounter", 3.0, 4.0, 2, None),
            (4, "core.pipeline", 6.0, 9.0, 1, None),
        ]
        report, remainder = self_time_report(spans, wall_s=12.0)
        self.assertAlmostEqual(report["simulation.engine"]["self_s"], 3.0)
        self.assertAlmostEqual(report["simulation.traits"]["self_s"], 3.0)
        self.assertAlmostEqual(report["simulation.traits"]["share"], 0.25)
        self.assertAlmostEqual(remainder, 2.0)
        self.assertEqual(check_accounting(spans, report, remainder, 12.0), [])

    def test_orphans_and_overlong_children_are_reported(self) -> None:
        spans = [(1, "service.app", 0.0, 1.0, 0, None), (2, "service.bind", 0.0, 2.0, 1, None),
                 (3, "service.cache", 0.0, 1.0, 9, None)]
        report, remainder = self_time_report(spans, wall_s=5.0)
        problems = check_accounting(spans, report, remainder, 5.0)
        self.assertEqual(len(problems), 3)  # orphan, negative self time, sum mismatch

    def test_server_spans_hang_under_their_request(self) -> None:
        client = [(1, "service.http", 0.0, 10.0, 0, "r1"), (2, "service.http", 10.0, 12.0, 0, "r2")]
        server = [(1, "service.app", 1.0, 9.0, 0, "r1"), (2, "service.bind", 2.0, 3.0, 1, "r1"),
                  (3, "service.app", 13.0, 14.0, 0, "warm-up")]
        linked = link_server_spans(client, server)
        report, remainder = self_time_report(linked, wall_s=12.0)
        self.assertAlmostEqual(report["service.http"]["self_s"], 4.0)
        self.assertAlmostEqual(report["service.app"]["self_s"], 7.0)
        self.assertEqual(report["service.app"]["calls"], 1)
        self.assertAlmostEqual(remainder, 0.0)

    def test_wrapper_links_child_to_parent(self) -> None:
        recorder = SpanRecorder()

        def inner() -> int:
            return 1

        outer = recorder.wrap("simulation.engine", lambda: wrapped_inner() + 1)
        wrapped_inner = recorder.wrap("simulation.traits", inner)
        self.assertEqual(outer(), 2)
        (child, parent) = recorder.spans
        self.assertEqual(child[4], parent[0])
        self.assertEqual(parent[4], 0)


class SlowdownTest(unittest.TestCase):
    def test_factor_and_scaled_time(self) -> None:
        samples = [(t * 0.1, 1.0 if t < 50 else 2.0) for t in range(100)]
        slowdown = Slowdown(samples, reference_s=1.0)
        self.assertAlmostEqual(slowdown.factor(1.0, 2.0), 1.0)
        self.assertAlmostEqual(slowdown.factor(7.0, 8.0), 2.0)
        self.assertTrue(math.isclose(slowdown.scaled_time(0.0, 10.0), 7.5, rel_tol=0.05))


class ScalingFollowsSlowdownTest(unittest.TestCase):
    """A slower server still reads slower once timings are scaled.

    The sampler's kernel shares the vCPUs with the server, so a server
    that loads them harder could slow the kernel as well, and scaling
    would then hide part of the server's slowdown.  Two traced servers
    take the ``service_mixed`` load in alternating slices; one spins
    ``BUSY_MS`` in every request.  The busy/plain ratios of p50 latency
    and of request rate must be the same, to within 10%, scaled as raw.
    """

    BUSY_MS = 3.0
    SLICES = 8
    SLICE_S = 1.5

    def test_scaled_ratios_match_raw_ratios(self) -> None:
        phases: Dict[str, List[service_load.ServicePhase]] = {"plain": [], "busy": []}
        servers: Dict[str, service_load.Server] = {}
        with Sampler() as sampler:
            try:
                for name, busy_ms in (("plain", 0.0), ("busy", self.BUSY_MS)):
                    data_dir = ROOT / ".perfbench_out" / f"selftest-{name}"
                    shutil.rmtree(data_dir, ignore_errors=True)
                    data_dir.mkdir(parents=True)
                    argv = service_load.server_argv(ROOT, data_dir, data_dir / "spans.json")
                    servers[name] = service_load.Server(
                        argv + ["--busy-ms", str(busy_ms)], ROOT, data_dir / "server.log")
                    service_load.warm(servers[name], 7)
                streams = {name: service_load.client_streams(7, name) for name in phases}
                for index in range(self.SLICES):
                    for name, server in servers.items():
                        phases[name].append(service_load.run_clients(
                            server, streams[name], self.SLICE_S, f"{name}{index}"))
            finally:
                for server in servers.values():
                    server.stop()
            slowdown = Slowdown(sampler.samples())
        figures = {}
        for name, runs in phases.items():
            records = [r for run in runs for r in run.records]
            calls = [(r.start, r.end) for r in records]
            figures[name] = {
                "raw p50": 1000.0 * statistics.median(r.latency_s for r in records),
                "scaled p50": statistics.median(scaled_latencies_ms(calls, slowdown)),
                "raw rate": len(records) / sum(run.wall_s for run in runs),
                "scaled rate": len(records) / sum(
                    slowdown.scaled_time(run.started, run.started + run.wall_s)
                    for run in runs),
            }
        ratios = {key: figures["busy"][key] / figures["plain"][key] for key in figures["busy"]}
        print(f"\nbusy/plain ratios: {ratios}", file=sys.stderr)
        self.assertGreater(ratios["raw p50"], 1.2)  # the spin is a real slowdown
        for metric in ("p50", "rate"):
            with self.subTest(metric=metric):
                self.assertAlmostEqual(
                    ratios[f"scaled {metric}"] / ratios[f"raw {metric}"], 1.0, delta=0.1)


if __name__ == "__main__":
    unittest.main()
