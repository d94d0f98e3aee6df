"""One table from the ``ReproError`` hierarchy to NGSIv2-style responses.

Every failure the platform can raise on a request path maps to exactly
one HTTP status + NGSIv2 error name here, so the service layer never
hand-rolls status codes and the mapping is testable exhaustively: the
facade test walks every exception class exported from ``repro.api`` and
asserts it resolves through this table (see ``tests/test_service.py``).

Resolution walks the exception's MRO and takes the first class present
in the table, so subclasses inherit their base's mapping unless they
carry their own row (e.g. ``NotFoundError`` → 404 while its base
``ContextError`` → 400).
"""

from typing import Dict, Tuple, Type

from repro.context.errors import (
    AlreadyExistsError,
    ContextError,
    NotFoundError,
    QueryError,
)
from repro.faults.plan import FaultPlanError
from repro.mqtt.topics import TopicError
from repro.resilience.backpressure import BackpressureError
from repro.security.auth.oauth import OAuthError
from repro.service.http import Response
from repro.simkernel.errors import ReproError

__all__ = [
    "AuthenticationError",
    "AuthorizationError",
    "QuotaExceededError",
    "ServiceError",
    "ServiceOverloadedError",
    "error_response",
    "has_error_mapping",
    "status_for",
]


class ServiceError(ReproError):
    """Base error for the north-facing service layer."""


class AuthenticationError(ServiceError):
    """Missing, invalid, expired or revoked bearer token (→ 401)."""


class AuthorizationError(ServiceError):
    """Authenticated principal lacks access to the resource (→ 403)."""


class QuotaExceededError(ServiceError):
    """The tenant's request-rate quota window is exhausted (→ 429)."""


class ServiceOverloadedError(ServiceError):
    """The tenant's admission backlog is full (→ 503)."""


#: status code + NGSIv2 ``error`` field per exception class.  Order is
#: irrelevant (resolution is by MRO walk), but rows are grouped from the
#: service layer outward for readability.
_TABLE: Dict[Type[BaseException], Tuple[int, str]] = {
    # Service admission / auth.
    AuthenticationError: (401, "Unauthorized"),
    AuthorizationError: (403, "Forbidden"),
    QuotaExceededError: (429, "TooManyRequests"),
    ServiceOverloadedError: (503, "ServiceUnavailable"),
    OAuthError: (401, "Unauthorized"),
    # Context broker (Orion statuses: 404 unknown entity, 422 duplicate
    # create, 400 malformed query).
    NotFoundError: (404, "NotFound"),
    AlreadyExistsError: (422, "Unprocessable"),
    QueryError: (400, "BadRequest"),
    ContextError: (400, "BadRequest"),
    # Messaging / plans: caller-supplied specs that failed validation.
    TopicError: (400, "BadRequest"),
    FaultPlanError: (400, "BadRequest"),
    # Backpressure outside the tenant quota path (broker shedding load).
    BackpressureError: (503, "ServiceUnavailable"),
    # Platform-side failures (the store, the kernel, checkpoints, ...):
    # nothing the caller can fix.
    ReproError: (500, "InternalServerError"),
}


def _resolve(exc_type: Type[BaseException]) -> Tuple[int, str]:
    for cls in exc_type.__mro__:
        row = _TABLE.get(cls)
        if row is not None:
            return row
    return (500, "InternalServerError")


def has_error_mapping(exc_type: Type[BaseException]) -> bool:
    """True when ``exc_type`` (or a base of it) has a row in the table."""
    return any(cls in _TABLE for cls in exc_type.__mro__)


def status_for(exc: BaseException) -> int:
    """The HTTP status an exception (instance or class) maps to."""
    exc_type = exc if isinstance(exc, type) else type(exc)
    return _resolve(exc_type)[0]


def error_response(exc: BaseException) -> Response:
    """Translate a raised platform error into its NGSIv2 response."""
    exc_type = exc if isinstance(exc, type) else type(exc)
    status, name = _resolve(exc_type)
    description = "" if isinstance(exc, type) else str(exc)
    return Response(status, {"error": name, "description": description})
