"""``python -m repro.service serve`` — the stdlib HTTP front door.

Two small pieces serve the WSGI app on the standard library alone:

* :class:`_Gateway`, an :class:`http.server.BaseHTTPRequestHandler`,
  serves one HTTP/1.0 request per connection.  It builds the PEP 3333
  environ as ``wsgiref`` does (``PATH_INFO`` percent-decoded as
  ISO-8859-1, headers as ``HTTP_*`` keys with repeats comma-joined),
  calls the app, and writes the status line, headers and body in one
  ``write``.  An exception from the app becomes a 500.
* :class:`_Server` hands each accepted connection to an idle handler
  thread and starts a new daemon thread only when none is idle.  A
  handler counts itself idle as soon as its response is written, before
  the socket closes, so a closed-loop client's next connection usually
  reuses it instead of growing the pool (each extra thread keeps its
  own malloc arena).

Job execution stays on the service's own worker thread.  ``--data-dir``
locates the durable state: the result-cache stream and the job ledgers,
both of which a restarted server replays.
"""

from __future__ import annotations

import argparse
import http.server
import json
import queue
import socketserver
import sys
import threading
import traceback
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

from .app import ServiceApp, create_app
from .state import ServiceConfig

__all__ = ["main", "build_server"]

#: The longest request line served (as ``wsgiref``); longer is a 414.
_MAX_REQUEST_LINE = 65536


class _Gateway(http.server.BaseHTTPRequestHandler):
    """One request per connection: environ in, one write out."""

    # A request line without a version (``GARBAGE``) still gets a status line.
    default_request_version = "HTTP/1.0"
    server: "_Server"

    def handle(self) -> None:
        self.raw_requestline = self.rfile.readline(_MAX_REQUEST_LINE + 1)
        if len(self.raw_requestline) > _MAX_REQUEST_LINE:
            self.requestline = self.command = ""
            self.request_version = self.default_request_version
            self.send_error(414)
            return
        if not self.parse_request():  # parse_request sent the error reply
            return
        self.wfile.write(self._respond(self._environ()))

    def _environ(self) -> Dict[str, Any]:
        path, _, query = self.path.partition("?")
        environ: Dict[str, Any] = {
            "REQUEST_METHOD": self.command,
            "SCRIPT_NAME": "",
            "PATH_INFO": urllib.parse.unquote(path, "iso-8859-1"),
            "QUERY_STRING": query,
            "SERVER_NAME": self.server.server_name,
            "SERVER_PORT": str(self.server.server_port),
            "SERVER_PROTOCOL": self.request_version,
            "REMOTE_ADDR": self.client_address[0],
            "wsgi.version": (1, 0),
            "wsgi.url_scheme": "http",
            "wsgi.input": self.rfile,
            "wsgi.errors": sys.stderr,
            "wsgi.multithread": True,
            "wsgi.multiprocess": False,
            "wsgi.run_once": False,
        }
        content_type = self.headers.get("Content-Type")
        if content_type is None:
            content_type = self.headers.get_content_type()
        environ["CONTENT_TYPE"] = content_type
        length = self.headers.get("Content-Length")
        if length:
            environ["CONTENT_LENGTH"] = length
        for name, value in self.headers.items():
            key = name.replace("-", "_").upper()
            if key in ("CONTENT_TYPE", "CONTENT_LENGTH"):
                continue
            key = "HTTP_" + key
            value = value.strip()
            environ[key] = f"{environ[key]},{value}" if key in environ else value
        return environ

    def _respond(self, environ: Dict[str, Any]) -> bytes:
        """The whole response: status line, headers and body."""
        started: List[Any] = []

        def start_response(
            status: str, headers: List[Tuple[str, str]], exc_info: Any = None
        ) -> None:
            started[:] = [status, headers]

        try:
            body = b"".join(self.server.app(environ, start_response))
            status, headers = started
        except Exception as error:  # the server must answer, not unwind
            traceback.print_exc()
            body = json.dumps(
                {"error": "internal", "message": f"{type(error).__name__}: {error}"},
                sort_keys=True,
            ).encode("utf-8")
            status = "500 Internal Server Error"
            headers = [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(body))),
            ]
        lines = [f"{self.protocol_version} {status}", f"Date: {self.date_time_string()}"]
        lines += [f"{name}: {value}" for name, value in headers]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("iso-8859-1") + body

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Per-request logging off; the job ledger is the record."""


class _Server(socketserver.TCPServer):
    """A TCP server that reuses idle handler threads (no cap)."""

    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: ServiceApp) -> None:
        self.app = app
        self._connections: "queue.SimpleQueue[Optional[Tuple[Any, Any]]]" = (
            queue.SimpleQueue()
        )
        self._lock = threading.Lock()
        self._idle = 0
        self._threads = 0
        super().__init__(address, _Gateway)
        host, port = self.socket.getsockname()[:2]
        self.server_name = str(host)
        self.server_port = int(port)

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._lock:
            start = self._idle == 0
            if start:
                self._threads += 1
            else:
                self._idle -= 1
        self._connections.put((request, client_address))
        if start:
            threading.Thread(target=self._serve_connections, daemon=True).start()

    def _serve_connections(self) -> None:
        while True:
            item = self._connections.get()
            if item is None:
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            # Idle before the close: the client may already be connecting again.
            with self._lock:
                self._idle += 1
            self.shutdown_request(request)

    def server_close(self) -> None:
        """Close the socket and let every parked handler thread exit."""
        super().server_close()
        with self._lock:
            for _ in range(self._threads):
                self._connections.put(None)
            self._threads = 0


def build_server(app: ServiceApp, host: str, port: int) -> _Server:
    """A ready-to-serve HTTP server bound to ``host:port``.

    Split from :func:`main` so the quickstart example and the benchmark
    can run a real loopback server in-process (port 0 picks a free one).
    """
    return _Server((host, port), app)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation-as-a-service over the scenario registry.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    serve = subparsers.add_parser("serve", help="run the HTTP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750)
    serve.add_argument(
        "--data-dir",
        default="service-data",
        help="directory for the cache stream and job ledgers",
    )
    serve.add_argument(
        "--inline-threshold",
        type=int,
        default=100_000,
        help="receiver-round budget above which runs become async jobs",
    )
    args = parser.parse_args(argv)

    config = ServiceConfig(
        data_dir=args.data_dir, inline_threshold=args.inline_threshold
    )
    app = create_app(config)
    server = build_server(app, args.host, args.port)
    print(
        f"repro.service listening on http://{args.host}:{server.server_port} "
        f"(data: {args.data_dir})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        app.state.close()
    return 0
