"""Typed service failures, each carrying the HTTP status it maps to.

Shared by :mod:`repro.serve.service` (which re-exports them) and
:mod:`repro.serve.live`.
"""

from __future__ import annotations

__all__ = [
    "ServeError",
    "InvalidRequestError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServiceClosedError",
    "BackendError",
]


class ServeError(Exception):
    """Base class for service-level failures."""

    #: HTTP status the front-end reports for this error class.
    http_status = 500


class InvalidRequestError(ServeError):
    """Malformed request: unknown side, vertex out of range, bad taus."""

    http_status = 400


class QueueFullError(ServeError):
    """Admission control rejected the request (queue at capacity)."""

    http_status = 429


class DeadlineExceededError(ServeError):
    """The request's deadline expired before an answer was produced."""

    http_status = 504


class ServiceClosedError(ServeError):
    """The service is shut down (or shutting down)."""

    http_status = 503


class BackendError(ServeError):
    """Every backend in the degradation chain failed."""

    http_status = 500
