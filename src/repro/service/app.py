"""The WSGI routing core: pure request handling, JSON in, JSON out.

Decomposed FastAPI-style: each ``router_*`` module declares its routes on
a module-level :class:`Router` (``@router.get("/jobs/{job_id}")`` etc.),
and :func:`create_app` collects them into one :class:`ServiceApp`.  The
app is dependency-free — requests parse with the stdlib, responses are
canonical sorted-key JSON — and :meth:`ServiceApp.handle` is a pure
``(method, path, body) -> (status, payload)`` function, so the test
suite drives the full stack through ``wsgiref`` test environs without a
socket; :mod:`repro.service.cli` serves the same app over HTTP.

Error mapping is uniform: :class:`~repro.service.errors.ApiError`
subclasses carry their own status and structured body.  A library
:class:`~repro.core.exceptions.ReproError` escaping a handler is a
validation failure (422) when it rejects a value — every ``ModelError``
does, and so does any error naming a ``parameter`` — and a malformed
request (400) otherwise; the body carries the ``parameter`` or ``field``
the error names.  Anything else is a 500 that names the exception class
but never unwinds the server.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import urllib.parse
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..core.exceptions import ModelError, ReproError
from .errors import (
    ApiError,
    BadRequestError,
    MethodNotAllowedError,
    NotFoundError,
    ValidationFailure,
)
from .state import ServiceConfig, ServiceState

__all__ = ["Request", "Router", "ServiceApp", "create_app"]

#: Reason phrases for the statuses the service emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}

#: WSGI aliases (``wsgiref.types`` needs 3.11; the service supports 3.10).
Environ = Dict[str, Any]
StartResponse = Callable[..., Any]


@dataclasses.dataclass(frozen=True)
class Request:
    """One parsed request as the handlers see it."""

    method: str
    path: str
    path_params: Dict[str, str]
    query: Dict[str, str]
    body: Optional[Dict[str, Any]]


#: A handler returns a payload (200) or an explicit ``(status, payload)``.
HandlerResult = Union[Dict[str, Any], Tuple[int, Dict[str, Any]]]
Handler = Callable[[ServiceState, Request], HandlerResult]


@dataclasses.dataclass(frozen=True)
class Route:
    """One method + path pattern; ``{name}`` segments capture path params."""

    method: str
    pattern: str
    handler: Handler

    @functools.cached_property
    def segments(self) -> Tuple[str, ...]:
        return tuple(part for part in self.pattern.split("/") if part)

    def match(self, path_segments: Tuple[str, ...]) -> Optional[Dict[str, str]]:
        """Captured path params when the path matches, else ``None``."""
        segments = self.segments
        if len(segments) != len(path_segments):
            return None
        captured: Dict[str, str] = {}
        for expected, actual in zip(segments, path_segments):
            if expected.startswith("{") and expected.endswith("}"):
                captured[expected[1:-1]] = urllib.parse.unquote(actual)
            elif expected != actual:
                return None
        return captured


class Router:
    """A router module's route collection (``@router.get``/``.post``)."""

    def __init__(self) -> None:
        self.routes: List[Route] = []

    def _register(self, method: str, pattern: str) -> Callable[[Handler], Handler]:
        def decorator(handler: Handler) -> Handler:
            self.routes.append(Route(method=method, pattern=pattern, handler=handler))
            return handler

        return decorator

    def get(self, pattern: str) -> Callable[[Handler], Handler]:
        return self._register("GET", pattern)

    def post(self, pattern: str) -> Callable[[Handler], Handler]:
        return self._register("POST", pattern)


class ServiceApp:
    """The WSGI application over one :class:`ServiceState`."""

    def __init__(self, state: ServiceState, routers: Iterable[Router]) -> None:
        self.state = state
        self.routes: List[Route] = [
            route for router in routers for route in router.routes
        ]

    # -- pure core ---------------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        query: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Dispatch one request; always returns ``(status, JSON payload)``."""
        path_segments = tuple(part for part in path.split("/") if part)
        try:
            allowed: List[str] = []
            for route in self.routes:
                captured = route.match(path_segments)
                if captured is None:
                    continue
                if route.method != method:
                    allowed.append(route.method)
                    continue
                request = Request(
                    method=method,
                    path=path,
                    path_params=captured,
                    query=dict(query or {}),
                    body=body,
                )
                result = route.handler(self.state, request)
                if isinstance(result, tuple):
                    return result
                return 200, result
            if allowed:
                raise MethodNotAllowedError(
                    f"{path!r} does not allow {method}",
                    allowed=sorted(set(allowed)),
                )
            raise NotFoundError(f"no route for {path!r}", path=path)
        except ApiError as error:
            return error.status, error.payload()
        except ReproError as error:
            rejected = isinstance(error, ModelError) or error.parameter is not None
            failure = (ValidationFailure if rejected else BadRequestError)(
                str(error), parameter=error.parameter, field=error.field
            )
            return failure.status, failure.payload()
        except Exception as error:  # the server must answer, not unwind
            return 500, {
                "error": "internal",
                "message": f"{type(error).__name__}: {error}",
            }

    # -- WSGI --------------------------------------------------------------------

    def __call__(
        self, environ: Environ, start_response: StartResponse
    ) -> Iterable[bytes]:
        method = str(environ.get("REQUEST_METHOD", "GET")).upper()
        path = str(environ.get("PATH_INFO", "/"))
        query = dict(
            urllib.parse.parse_qsl(str(environ.get("QUERY_STRING", "")))
        )
        try:
            body = self._read_body(environ)
        except BadRequestError as error:
            status, payload = error.status, error.payload()
        else:
            status, payload = self.handle(method, path, body=body, query=query)
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        start_response(
            f"{status} {_REASONS.get(status, 'Unknown')}",
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(data))),
            ],
        )
        return [data]

    @staticmethod
    def _read_body(environ: Environ) -> Optional[Dict[str, Any]]:
        """The request's JSON object body, if any."""
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except (TypeError, ValueError):
            length = 0
        if length <= 0:
            return None
        stream = environ.get("wsgi.input")
        if stream is None:
            return None
        raw = stream.read(length)
        if isinstance(raw, str):  # pragma: no cover - non-bytes test streams
            raw = raw.encode("utf-8")
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequestError(f"request body is not valid JSON: {error}") from error
        if not isinstance(parsed, dict):
            raise BadRequestError("request body must be a JSON object")
        return parsed


def create_app(
    config: Optional[ServiceConfig] = None,
    state: Optional[ServiceState] = None,
) -> ServiceApp:
    """Assemble the service from every router module.

    Pass either a ready :class:`ServiceState` (tests share one across an
    app and direct store access) or a :class:`ServiceConfig` to build a
    fresh one.  Router modules import lazily here, keeping each router a
    leaf module free of import cycles with the core.
    """
    if state is None:
        if config is None:
            raise ValueError("create_app needs a ServiceConfig or a ServiceState")
        state = ServiceState(config)
    from . import (
        router_analyze,
        router_health,
        router_results,
        router_scenarios,
        router_simulate,
    )

    return ServiceApp(
        state,
        [
            router_health.router,
            router_scenarios.router,
            router_analyze.router,
            router_simulate.router,
            router_results.router,
        ],
    )
