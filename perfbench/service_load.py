"""The ``service_mixed`` workload: a real loopback server and two closed-loop clients.

The server runs in its own process, started either as ``python -m
repro.service serve`` (untraced) or through ``launcher.py`` (traced).  One
load-generator thread per client sends a request, waits for the whole
response, then sends the next; every request opens a fresh connection.

Each client repeats a fixed block of request kinds in an order shuffled
from the workload seed, so the mix is the same in every run:

* client 0, per 10 requests: 6 hot ``/simulate`` hits, 2 fresh-seed
  ``/simulate`` misses, 1 re-request of one of its own earlier misses, 1
  ``/analyze``;
* client 1, per 10 requests: 9 hot hits, 1 ``/analyze``.

Only client 0 sends misses, so at most one engine call runs at a time.
Concurrent engine calls return wrong results at the seed commit (see
README.md), and a benchmark workload must run without failures.

Every response is checked after the timed window against a serial
in-process oracle built from the public experiments API, in canonical
form: wall-clock metrics (``experiments.WALL_CLOCK_METRICS``), other
``perf:`` metrics and ``chunk_workers`` are dropped.  Wrong responses are
counted, never retried or dropped.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from spans import REQUEST_ID_HEADER, SpanRecorder

SCENARIO = "passwords"
N_RECEIVERS = 2_000
HOT_SET = 8
ACCOUNTS_RANGE = (1, 200)  # the distinct_accounts values requests draw from
MISS_CLIENT_BLOCK = ("hot",) * 6 + ("miss",) * 2 + ("rehit", "analyze")
READ_CLIENT_BLOCK = ("hot",) * 9 + ("analyze",)
CLIENTS = 2

# ("simulate", params JSON, seed) or ("analyze", params JSON, None)
Key = Tuple[str, str, Optional[int]]


@dataclasses.dataclass(frozen=True)
class Request:
    kind: str
    key: Key
    path: str
    body: bytes


def _simulate(params: Dict[str, Any], seed: int, kind: str) -> Request:
    body = {"scenario": SCENARIO, "params": params, "n_receivers": N_RECEIVERS, "seed": seed}
    key = ("simulate", json.dumps(params, sort_keys=True), seed)
    return Request(kind, key, "/simulate", json.dumps(body).encode())


def _analyze(params: Dict[str, Any]) -> Request:
    body = {"scenario": SCENARIO, "params": params}
    key = ("analyze", json.dumps(params, sort_keys=True), None)
    return Request("analyze", key, "/analyze", json.dumps(body).encode())


def hot_set(seed: int) -> List[Request]:
    """The small set of ``/simulate`` requests warmed before timing."""
    rng = random.Random(f"{seed}-hot")
    return [
        _simulate(
            {"distinct_accounts": rng.randint(*ACCOUNTS_RANGE),
             "single_sign_on": rng.random() < 0.5},
            rng.randrange(10_000),
            "hot",
        )
        for _ in range(HOT_SET)
    ]


def client_requests(seed: int, client: int, misses: bool, phase: str) -> Iterator[Request]:
    """One client's endless request sequence, fixed by the workload seed.

    Miss seeds start at 10,000 (above every hot seed) and are distinct
    across clients and phases, so a miss is always a cache miss.
    """
    rng = random.Random(f"{seed}-{phase}-{client}")
    hot = hot_set(seed)
    block = list(MISS_CLIENT_BLOCK if misses else READ_CLIENT_BLOCK)
    next_miss_seed = 10_000 + rng.randrange(10**9)
    missed: List[Request] = []
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "hot" or (kind == "rehit" and not missed):
                yield rng.choice(hot)
            elif kind == "miss":
                params = json.loads(rng.choice(hot).key[1])
                request = _simulate(params, next_miss_seed, "miss")
                next_miss_seed += 1
                missed.append(request)
                yield request
            elif kind == "rehit":
                yield dataclasses.replace(rng.choice(missed), kind="rehit")
            else:
                yield _analyze({"distinct_accounts": rng.randint(*ACCOUNTS_RANGE)})


# -- one request ---------------------------------------------------------------


@dataclasses.dataclass
class Record:
    request: Request
    request_id: str
    start: float
    end: float
    status: Optional[int]
    body: bytes
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        return self.end - self.start


def send(port: int, method: str, path: str, body: Optional[bytes] = None,
         request_id: Optional[str] = None) -> Tuple[Optional[int], bytes, Optional[str]]:
    """One request on a fresh connection: ``(status, body, transport error)``."""
    headers = {"Content-Type": "application/json"}
    if request_id is not None:
        headers[REQUEST_ID_HEADER] = request_id
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read(), None
    except (OSError, http.client.HTTPException) as error:
        return None, b"", f"{type(error).__name__}: {error}"
    finally:
        connection.close()


# -- the server process ----------------------------------------------------------


class Server:
    """A service process on a free loopback port, healthy once constructed."""

    def __init__(self, argv: Sequence[str], root: Path, log: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self.started = time.perf_counter()
        with log.open("w") as stderr:
            self.process = subprocess.Popen(
                list(argv), cwd=root, env=env, stdout=subprocess.PIPE,
                stderr=stderr, text=True,
            )
        try:
            line = self.process.stdout.readline() if self.process.stdout else ""
            match = re.search(r"127\.0\.0\.1:(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not report its port: {line!r}; see {log}")
            self.port = int(match.group(1))
            status, _, error = send(self.port, "GET", "/health")
            if status != 200:
                raise RuntimeError(f"server unhealthy: status {status}, {error}")
        except BaseException:
            self.stop()
            raise
        self.ready = time.perf_counter()

    def health(self) -> Dict[str, Any]:
        status, body, error = send(self.port, "GET", "/health")
        if status != 200:
            raise RuntimeError(f"/health failed: status {status}, {error}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set size so far."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match is None:
            raise RuntimeError("no VmHWM in /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        """Interrupt the server (it closes its state) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout:
            self.process.stdout.close()


def server_argv(root: Path, data_dir: Path, spans: Optional[Path] = None) -> List[str]:
    if spans is None:
        return [sys.executable, "-m", "repro.service", "serve", "--host", "127.0.0.1",
                "--port", "0", "--data-dir", str(data_dir)]
    return [sys.executable, str(root / "perfbench" / "launcher.py"), "--data-dir",
            str(data_dir), "--spans", str(spans)]


# -- the load ----------------------------------------------------------------------


@dataclasses.dataclass
class ServicePhase:
    records: List[Record]
    started: float
    wall_s: float
    thread_s: float  # summed over client threads


def warm(server: Server, seed: int) -> None:
    """Compute every hot-set entry once, outside the timed window."""
    for request in hot_set(seed):
        status, _, error = send(server.port, "POST", request.path, request.body)
        if status != 200:
            raise RuntimeError(f"warm-up request failed: status {status}, {error}")


def client_streams(seed: int, phase: str) -> List[Iterator[Request]]:
    """One request sequence per client; only client 0 sends misses."""
    return [client_requests(seed, client, client == 0, phase) for client in range(CLIENTS)]


def run_clients(
    server: Server,
    streams: Sequence[Iterator[Request]],
    seconds: float,
    label: str,
    recorder: Optional[SpanRecorder] = None,
) -> ServicePhase:
    """One closed-loop client per stream for ``seconds``; every response kept.

    ``label`` prefixes the request ids, so it must differ between calls
    whose spans are compared.
    """
    per_client: List[List[Record]] = [[] for _ in streams]
    thread_s = [0.0] * len(streams)
    barrier = threading.Barrier(len(streams) + 1)
    start_at: List[float] = []

    def loop(client: int) -> None:
        requests = streams[client]
        records = per_client[client]
        barrier.wait()
        began = time.perf_counter()
        deadline = start_at[0] + seconds
        while time.perf_counter() < deadline:
            request = next(requests)
            request_id = f"{label}-{client}-{len(records)}"
            start = time.perf_counter()
            status, body, error = send(
                server.port, "POST", request.path, request.body, request_id
            )
            end = time.perf_counter()
            records.append(Record(request, request_id, start, end, status, body, error))
            if recorder is not None:
                recorder.record("service.http", start, end, request_id)
        thread_s[client] = time.perf_counter() - began

    threads = [threading.Thread(target=loop, args=(c,), daemon=True)
               for c in range(len(streams))]
    for thread in threads:
        thread.start()
    start_at.append(time.perf_counter())
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("a load-generator client did not finish")
    wall_s = time.perf_counter() - start_at[0]
    records = [r for client_records in per_client for r in client_records]
    return ServicePhase(records, start_at[0], wall_s, sum(thread_s))


# -- the oracle --------------------------------------------------------------------


def canonical_row(row: Dict[str, Any]) -> str:
    """A result row without wall-clock telemetry, as one string."""
    from repro.experiments import WALL_CLOCK_METRICS

    row = dict(row)
    row.pop("chunk_workers", None)
    row["metrics"] = {
        name: value
        for name, value in dict(row.get("metrics", {})).items()
        if name not in WALL_CLOCK_METRICS and not name.startswith("perf:")
    }
    return json.dumps(row, sort_keys=True)


def oracle(keys: Sequence[Key]) -> Dict[Key, List[str]]:
    """Expected canonical rows per request, computed serially in this process."""
    from repro.experiments import Experiment, VariantSpec
    from repro.io.experiments_io import resultset_to_dict

    expected: Dict[Key, List[str]] = {}
    for key in sorted(set(keys), key=repr):
        kind, params, seed = key
        variant = VariantSpec(scenario=SCENARIO, params=json.loads(params))
        if kind == "analyze":
            experiment = Experiment(name="analyze", variants=(variant,),
                                    paths=("analyze",), seed_strategy="shared")
        else:
            experiment = Experiment(name="simulate", variants=(variant,),
                                    n_receivers=N_RECEIVERS, seed=seed or 0,
                                    seed_strategy="shared")
        rows = resultset_to_dict(experiment.run())["rows"]
        expected[key] = [canonical_row(row) for row in rows]
    return expected


def response_rows(record: Record) -> List[Dict[str, Any]]:
    payload = json.loads(record.body)
    if payload.get("status") != "completed":
        raise ValueError(f"response status {payload.get('status')!r}")
    if record.request.kind == "analyze":
        return [payload["row"]]
    return list(payload["resultset"]["rows"])


def check_records(
    records: Sequence[Record], expected: Dict[Key, List[str]]
) -> Tuple[int, List[str]]:
    """How many responses failed, and the first few reasons.

    A response fails on a transport error, a status other than 200, a
    body that does not parse, or rows that differ from the oracle's.
    """
    failed = 0
    problems: List[str] = []
    for record in records:
        if record.error is not None:
            problem = f"{record.request_id}: transport error {record.error}"
        elif record.status != 200:
            problem = f"{record.request_id}: status {record.status}"
        else:
            try:
                rows = [canonical_row(row) for row in response_rows(record)]
            except (ValueError, KeyError, TypeError) as error:
                rows, problem = None, f"{record.request_id}: unreadable body ({error})"
            else:
                problem = None
            if rows is not None and rows != expected[record.request.key]:
                problem = (f"{record.request_id}: {record.request.kind} {record.request.key} "
                           "differs from the oracle")
        if problem is not None:
            failed += 1
            if len(problems) < 5:
                problems.append(problem)
    return failed, problems
