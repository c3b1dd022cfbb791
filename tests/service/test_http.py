"""The real socket server: ``build_server`` on a loopback port.

Every other service test drives the app through ``wsgi_call`` without a
socket.  These open real connections to ``build_server(app, host, 0)``
served on a background thread, and pin what the HTTP front end must
keep: responses equal to the WSGI-level ones, the status codes of bad
requests (after each of which the server still answers), the environ
the app sees, error containment, concurrent clients, and handler-thread
hygiene.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
import urllib.parse
from typing import Any, Dict, Iterator, List, Optional, Tuple

import pytest

from repro.service.app import ServiceApp
from repro.service.cli import build_server
from repro.systems.scenario import variant_hash

from .conftest import computed_bytes, request_identity, wsgi_call

POINT = {
    "scenario": "passwords",
    "n_receivers": 200,
    "seed": 2,
    "params": {"single_sign_on": True},
}
DETACHED_SWEEP = {
    "scenario": "passwords",
    "grid": {"rounds": [1, 2]},
    "n_receivers": 25,
    "seed": 6,
    "detach": True,
}
INLINE_SWEEP = {
    "scenario": "passwords",
    "grid": {"rounds": [1, 2]},
    "n_receivers": 25,
    "seed": 7,
}


@pytest.fixture
def server(app) -> Iterator[Any]:
    server = build_server(app, "127.0.0.1", 0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def http_call(
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    raw_body: Optional[bytes] = None,
) -> Tuple[int, Dict[str, Any]]:
    """One request on a fresh connection; returns ``(status, JSON)``."""
    payload = raw_body
    if payload is None and body is not None:
        payload = json.dumps(body).encode("utf-8")
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        data = response.read()
        assert response.getheader("Content-Type") == "application/json"
        assert int(response.getheader("Content-Length")) == len(data)
        return response.status, json.loads(data.decode("utf-8"))
    finally:
        connection.close()


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send ``request`` bytes as they are; everything the server sends back."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        chunks: List[bytes] = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # closed with request bytes unread
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def status_of(response: bytes) -> int:
    """The status code of a raw response's status line."""
    version, code = response.split(b"\r\n", 1)[0].split(b" ")[:2]
    assert version.startswith(b"HTTP/"), response[:80]
    return int(code)


def canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True)


def assert_still_healthy(port: int) -> None:
    status, payload = http_call(port, "GET", "/health")
    assert (status, payload["status"]) == (200, "ok")


@pytest.fixture
def done_job(app, service_state) -> str:
    status, payload = app.handle("POST", "/sweep", body=dict(DETACHED_SWEEP))
    assert status == 202
    service_state.run_pending_jobs()
    return str(payload["job"]["job_id"])


def _router_requests(
    job_id: str, resultset: Dict[str, Any]
) -> List[Tuple[str, str, Optional[Dict[str, Any]]]]:
    point_hash = variant_hash("passwords", {"single_sign_on": True})
    row_hash = variant_hash("passwords", {"rounds": 2})
    return [
        ("GET", "/health", None),
        ("GET", "/scenarios", None),
        ("GET", "/scenarios/passwords", None),
        ("POST", "/scenarios/passwords/validate", {"params": {"rounds": 3}}),
        ("POST", "/scenarios/passwords/validate", {"params": {"user_noise_std": 9.0}}),
        ("POST", "/analyze", {"scenario": "passwords"}),
        ("POST", "/simulate", POINT),
        ("POST", "/sweep", INLINE_SWEEP),
        ("GET", "/jobs", None),
        ("GET", f"/jobs/{job_id}", None),
        ("GET", f"/jobs/{job_id}/events", None),
        ("GET", f"/results/{job_id}", None),
        ("GET", f"/results/{job_id}/rows/{row_hash}", None),
        ("GET", f"/results/by-hash/{point_hash}", None),
        ("GET", f"/results/by-hash/{point_hash}?mode=analytic", None),
        ("POST", "/results/merge", {"resultsets": [resultset]}),
        ("POST", "/results/import", {"resultset": resultset}),
        ("POST", "/results/reproduce", {"variant_hash": point_hash}),
    ]


class TestResponsesMatchWsgi:
    def test_every_router_answers_as_over_wsgi(self, app, server, done_job):
        """Each request is warmed through WSGI first, so HTTP and the
        repeated WSGI call both see the same (cached) state."""
        resultset = app.handle("GET", f"/results/{done_job}")[1]["resultset"]
        for method, path, body in _router_requests(done_job, resultset):
            wsgi_call(app, method, path.split("?")[0], body=body)
            over_http = http_call(server.server_port, method, path, body=body)
            if "?" in path:  # wsgi_call has no query string; compare by handle
                base, query = path.split("?", 1)
                expected = app.handle(
                    method, base, body=body,
                    query=dict(urllib.parse.parse_qsl(query)),
                )
            else:
                expected = wsgi_call(app, method, path, body=body)
            assert over_http[0] == expected[0], (method, path)
            assert canonical(over_http[1]) == canonical(expected[1]), (method, path)

    def test_percent_encoded_segment_decodes_as_wsgiref(self, app, server):
        status, payload = http_call(server.server_port, "GET", "/scenarios/pass%77ords")
        assert (status, payload["name"]) == (200, "passwords")
        for raw_path in ("/scenarios/pass%77ords", "/nope/%C3%A9%2Fx%20y"):
            decoded = urllib.parse.unquote(raw_path, "iso-8859-1")
            over_http = http_call(server.server_port, "GET", raw_path)
            expected = wsgi_call(app, "GET", decoded)
            assert over_http[0] == expected[0]
            assert canonical(over_http[1]) == canonical(expected[1])


class TestBadRequests:
    def test_malformed_json_body_is_400(self, server):
        status, payload = http_call(
            server.server_port, "POST", "/analyze", raw_body=b"{not json"
        )
        assert (status, payload["error"]) == (400, "bad_request")
        assert_still_healthy(server.server_port)

    @pytest.mark.parametrize(
        "line", [b"GET / EXTRA HTTP/1.0\r\n\r\n", b"GARBAGE\r\n\r\n"]
    )
    def test_garbage_request_line_is_400(self, server, line):
        # A line with no version still gets a status line, not a bare body.
        response = raw_exchange(server.server_port, line)
        assert status_of(response) == 400
        assert_still_healthy(server.server_port)

    def test_unknown_route_is_404(self, server):
        status, payload = http_call(server.server_port, "GET", "/nope")
        assert (status, payload["error"]) == (404, "not_found")
        assert_still_healthy(server.server_port)

    def test_wrong_method_is_405_with_allowed(self, server):
        status, payload = http_call(server.server_port, "GET", "/analyze")
        assert status == 405
        assert payload["allowed"] == ["POST"]
        assert_still_healthy(server.server_port)

    def test_request_line_over_64k_is_414(self, server):
        # Exactly as many bytes as the server reads, so none are left unread.
        line = b"GET /" + b"a" * (65537 - len(b"GET /"))
        response = raw_exchange(server.server_port, line)
        assert status_of(response) == 414
        assert_still_healthy(server.server_port)


class TestEnviron:
    @pytest.fixture
    def seen(self, monkeypatch) -> List[Dict[str, Any]]:
        """Every environ the app is called with (patched as perfbench patches)."""
        environs: List[Dict[str, Any]] = []
        original = ServiceApp.__call__

        def recording(app: ServiceApp, environ: Dict[str, Any], start_response: Any) -> Any:
            environs.append(dict(environ))
            return original(app, environ, start_response)

        monkeypatch.setattr(ServiceApp, "__call__", recording)
        return environs

    def test_request_id_and_repeated_headers(self, server, seen):
        response = raw_exchange(
            server.server_port,
            b"GET /health HTTP/1.0\r\n"
            b"X-Perfbench-Request: r-1\r\n"
            b"X-Repeated: a\r\n"
            b"X-Repeated: b\r\n\r\n",
        )
        assert status_of(response) == 200
        (environ,) = seen
        assert environ["HTTP_X_PERFBENCH_REQUEST"] == "r-1"
        assert environ["HTTP_X_REPEATED"] == "a,b"
        assert environ["REQUEST_METHOD"] == "GET"
        assert environ["PATH_INFO"] == "/health"

    def test_query_and_body_headers(self, server, seen):
        body = json.dumps({"scenario": "passwords"}).encode()
        response = raw_exchange(
            server.server_port,
            b"POST /analyze?x=1&y=2 HTTP/1.0\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body,
        )
        assert status_of(response) == 200
        (environ,) = seen
        assert environ["PATH_INFO"] == "/analyze"
        assert environ["QUERY_STRING"] == "x=1&y=2"
        assert environ["CONTENT_TYPE"] == "application/json"
        assert environ["CONTENT_LENGTH"] == str(len(body))
        assert "HTTP_CONTENT_TYPE" not in environ
        assert "HTTP_CONTENT_LENGTH" not in environ


class TestErrorContainment:
    def test_app_exception_is_500_and_server_keeps_serving(self, server, monkeypatch):
        original = ServiceApp.__call__

        def exploding(app: ServiceApp, environ: Dict[str, Any], start_response: Any) -> Any:
            if environ["PATH_INFO"] == "/boom":
                raise RuntimeError("app exploded")
            return original(app, environ, start_response)

        monkeypatch.setattr(ServiceApp, "__call__", exploding)
        response = raw_exchange(server.server_port, b"GET /boom HTTP/1.0\r\n\r\n")
        assert status_of(response) == 500
        assert_still_healthy(server.server_port)


def _canonical_rows(payload: Dict[str, Any]) -> List[str]:
    """Result rows without execution telemetry (timings, worker count)."""
    rows = []
    for row in payload["resultset"]["rows"]:
        row = dict(row)
        row.pop("chunk_workers", None)
        row["metrics"] = {
            name: value
            for name, value in row["metrics"].items()
            if not name.startswith("perf:")
        }
        rows.append(canonical(row))
    return rows


class TestConcurrentClients:
    def test_four_clients_get_serial_rows(self, app, server, tmp_path):
        from repro.service import ServiceConfig, create_app

        hot = [dict(POINT, seed=seed) for seed in (2, 3)]
        for point in hot:
            assert app.handle("POST", "/simulate", body=point)[0] == 200
        plans = [
            [
                hot[(client + step) % 2] if step % 3 else dict(POINT, seed=100 + 10 * client + step)
                for step in range(6)
            ]
            for client in range(4)
        ]
        answers: Dict[int, List[Tuple[int, Dict[str, Any]]]] = {}
        errors: List[BaseException] = []

        def client(index: int) -> None:
            try:
                answers[index] = [
                    http_call(server.server_port, "POST", "/simulate", body=point)
                    for point in plans[index]
                ]
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors

        serial = create_app(
            ServiceConfig(
                data_dir=str(tmp_path / "serial"),
                inline_threshold=500,
                threaded_worker=False,
            )
        )
        try:
            for index, plan in enumerate(plans):
                for point, (status, payload) in zip(plan, answers[index]):
                    expected = serial.handle("POST", "/simulate", body=point)
                    assert status == expected[0] == 200
                    assert _canonical_rows(payload) == _canonical_rows(expected[1])
        finally:
            serial.state.close()


class TestHandlerThreads:
    def test_sequential_requests_leave_few_threads(self, server):
        baseline = threading.active_count()
        for _ in range(200):
            assert http_call(server.server_port, "GET", "/health")[0] == 200
        assert threading.active_count() - baseline <= 2

    def test_every_handler_ends_idle_after_a_concurrent_burst(self, server):
        """8 clients (more than the cores) at a short switch interval: a
        lost update of the idle count would leave a handler counted busy."""
        errors: List[BaseException] = []

        def client() -> None:
            try:
                for _ in range(25):
                    assert http_call(server.server_port, "GET", "/health")[0] == 200
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not errors, errors
        assert not any(thread.is_alive() for thread in clients)
        deadline = time.monotonic() + 5
        while server._idle != server._threads and time.monotonic() < deadline:
            time.sleep(0.01)
        assert 1 <= server._idle == server._threads

    def test_shutdown_is_prompt_with_a_parked_handler(self, app):
        server = build_server(app, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert_still_healthy(server.server_port)
            start = time.monotonic()
            server.shutdown()
            assert time.monotonic() - start < 2.0
            thread.join(timeout=2)
            assert not thread.is_alive()
        finally:
            server.server_close()


class TestPoolFanOutBehindTheServer:
    """A job big enough to fan out forks the pool from the threaded server.

    Handler threads and the job worker are running when the pool starts,
    so this is where a fork could deadlock; every wait has a deadline.
    """

    BIG = {
        "scenario": "antiphishing",
        "n_receivers": 60_000,
        "seed": 11,
        "params": {"rounds": 3},
    }

    @staticmethod
    def _finished_job(port: int, job_id: str, while_waiting: Any) -> Dict[str, Any]:
        deadline = time.monotonic() + 120
        while True:
            while_waiting()
            job = http_call(port, "GET", f"/jobs/{job_id}")[1]["job"]
            if job["status"] in ("done", "failed"):
                return job
            assert time.monotonic() < deadline, job

    def test_async_job_fans_out_while_hits_go_on(self, tmp_path, monkeypatch):
        from repro.io import resultset_from_dict
        from repro.service import ServiceConfig, create_app
        from repro.service.requests import build_experiment
        from repro.simulation import engine as engine_module
        from repro.simulation import pool as pool_module

        # Start the next fan-out on a fresh fork, from inside the server.
        current = pool_module._POOL._current()
        pool_module._POOL._discard(current)

        app = create_app(ServiceConfig(data_dir=str(tmp_path / "service")))
        server = build_server(app, "127.0.0.1", 0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        hits: List[str] = []
        try:
            port = server.server_port
            status, warm = http_call(port, "POST", "/simulate", body=POINT)
            assert status == 200

            def hit() -> None:
                status, payload = http_call(port, "POST", "/simulate", body=POINT)
                assert status == 200
                hits.append(canonical(payload["resultset"]))

            status, submitted = http_call(port, "POST", "/simulate", body=self.BIG)
            assert status == 202
            job_id = submitted["job"]["job_id"]
            job = self._finished_job(port, job_id, hit)
            assert job["status"] == "done", job
            assert job["summary"]["from_cache"] is False
            first = http_call(port, "GET", f"/results/{job_id}")[1]["resultset"]

            status, again = http_call(port, "POST", "/simulate", body=self.BIG)
            assert status == 202
            repeat_id = again["job"]["job_id"]
            repeat = self._finished_job(port, repeat_id, lambda: None)
            assert repeat["summary"]["from_cache"] is True
            second = http_call(port, "GET", f"/results/{repeat_id}")[1]["resultset"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            app.state.close()

        assert hits and set(hits) == {canonical(warm["resultset"])}
        (row,) = first["rows"]
        expected_workers = (
            min(3, pool_module.usable_cpus()) if pool_module.can_fan_out() else 1
        )
        assert row["chunk_workers"] == expected_workers
        # The repeat serves the first computation's bytes, telemetry
        # included, under its own job's identity.
        assert computed_bytes(second["rows"][0]) == computed_bytes(row)
        assert request_identity(second["rows"][0]) == (repeat_id, row["variant"], 0)

        pool_module.run_groups(list, [None], 1)  # fork before patching the rule
        monkeypatch.setattr(engine_module, "_fan_out", lambda config, chunks: 1)
        serial = build_experiment(self.BIG, default_name=job_id).run()
        assert serial.rows[0].chunk_workers == 1
        assert resultset_from_dict(first).canonical_dict() == serial.canonical_dict()
