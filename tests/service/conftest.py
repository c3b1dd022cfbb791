"""Shared fixtures for the service tests: in-process apps, no sockets.

Every test drives the full WSGI stack either through the pure
``app.handle(method, path, body)`` core or through ``wsgi_call``, which
builds a ``wsgiref``-style test environ (``setup_testing_defaults`` plus
a JSON body) and invokes the app exactly as a real server would — still
without opening a socket anywhere.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, Optional, Tuple
from wsgiref.util import setup_testing_defaults

import pytest

from repro.service import ServiceConfig, ServiceState, create_app
from repro.service.app import ServiceApp


#: The fields a served row takes from the request serving it; every other
#: field is the bytes of the row's first computation.
REQUEST_LOCAL_FIELDS = ("experiment", "variant", "variant_index")


def computed_bytes(row: Dict[str, Any]) -> str:
    """A row's canonical JSON without its request-local fields."""
    content = {
        name: value for name, value in row.items() if name not in REQUEST_LOCAL_FIELDS
    }
    return json.dumps(content, sort_keys=True)


def request_identity(row: Dict[str, Any]) -> Tuple[Any, ...]:
    """A row's ``(experiment, variant, variant_index)``."""
    return tuple(row[name] for name in REQUEST_LOCAL_FIELDS)


@pytest.fixture
def service_state(tmp_path):
    """A service with a tiny inline budget and a manually-drained worker."""
    state = ServiceState(
        ServiceConfig(
            data_dir=str(tmp_path / "service"),
            inline_threshold=500,
            threaded_worker=False,
        )
    )
    yield state
    state.close()


@pytest.fixture
def app(service_state) -> ServiceApp:
    return create_app(state=service_state)


def wsgi_call(
    app: ServiceApp,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    raw_body: Optional[bytes] = None,
) -> Tuple[int, Dict[str, Any]]:
    """Drive the app through a wsgiref test environ; returns (status, JSON)."""
    environ: Dict[str, Any] = {}
    setup_testing_defaults(environ)
    environ["REQUEST_METHOD"] = method
    environ["PATH_INFO"] = path
    payload = raw_body
    if payload is None and body is not None:
        payload = json.dumps(body).encode("utf-8")
    if payload is not None:
        environ["wsgi.input"] = io.BytesIO(payload)
        environ["CONTENT_LENGTH"] = str(len(payload))
    captured: Dict[str, Any] = {}

    def start_response(status: str, headers) -> None:
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    data = b"".join(chunks)
    assert captured["headers"]["Content-Type"] == "application/json"
    assert int(captured["headers"]["Content-Length"]) == len(data)
    return captured["status"], json.loads(data.decode("utf-8"))
