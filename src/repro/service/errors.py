"""Structured API errors for the service layer.

Every error a handler raises maps to one JSON error body with a stable
``error`` kind, an HTTP status, and optional structured detail fields —
most importantly ``parameter``, which validation errors use to *name*
the offending scenario parameter (the 422 contract of the service).
These classes live in their own module so the routing core, the request
builders, and the routers can all raise them without import cycles.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = [
    "ApiError",
    "BadRequestError",
    "NotFoundError",
    "MethodNotAllowedError",
    "ValidationFailure",
    "IntegrityError",
]


class ApiError(Exception):
    """An error with a structured JSON body and an HTTP status.

    Keyword details become fields of the body; a ``None`` detail is left out.
    """

    status: int = 500
    kind: str = "internal"

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.message = message
        self.details: Dict[str, Any] = {
            name: value for name, value in details.items() if value is not None
        }

    def payload(self) -> Dict[str, Any]:
        """The JSON error body served for this error."""
        body: Dict[str, Any] = {"error": self.kind, "message": self.message}
        body.update(self.details)
        return body


class BadRequestError(ApiError):
    """Malformed request: bad JSON, missing field, inconsistent spec."""

    status = 400
    kind = "bad_request"


class NotFoundError(ApiError):
    """Unknown route, job id, or result row."""

    status = 404
    kind = "not_found"


class MethodNotAllowedError(ApiError):
    """The path exists but not under this HTTP method."""

    status = 405
    kind = "method_not_allowed"


class ValidationFailure(ApiError):
    """A request value failed scenario/parameter validation (HTTP 422).

    When the failure is attributable to one parameter, the ``parameter``
    detail names it — the structured contract the test suite pins.
    """

    status = 422
    kind = "validation"


class IntegrityError(ApiError):
    """A computed row failed a sanity check and was refused (HTTP 500).

    Raised before the row can reach the first-write-wins result cache,
    which would otherwise serve it forever; the ``check`` detail names
    the check that failed.
    """

    status = 500
    kind = "integrity"
