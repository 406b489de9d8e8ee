"""The HTTP/JSON route table over :class:`PMBCService`, and its threaded front-end.

Endpoints:

- ``GET /query?side=upper&vertex=3&tau_u=2&tau_l=2`` (or POST the same
  fields as a JSON body; ``label`` may replace ``vertex``,
  ``objective=balanced`` selects another registered query family, and
  ``verify=1`` attaches a structural answer certificate from
  :mod:`repro.core.verify`) — answer a personalized query;
- ``POST /query_batch`` with ``{"queries": [{...}, ...], "deadline":
  s}`` — answer many queries in one admission; the service groups the
  batch by query vertex so shared two-hop extractions are paid once;
- ``POST /update`` with ``{"updates": [{"action": "insert", "u": 3,
  "v": 5}, ...]}`` — apply streaming edge insertions/deletions to the
  live service: core bounds are repaired incrementally, and only the
  affected two-hop neighborhoods' cache entries / adaptive trees /
  index trees are invalidated (see docs/dynamic.md);
- ``GET /healthz`` — liveness;
- ``GET /metrics`` — Prometheus-style text exposition;
- ``GET /stats`` — JSON service snapshot;
- ``GET /debug/traces`` — recent search-trace summaries, most recent
  first (``limit=N`` truncates, ``id=...`` fetches one trace by id).

``explain=1`` on ``/query`` (or ``"explain": true`` in a POST body /
batch body) attaches the computation's search trace to the response —
see docs/observability.md.

Requests are validated against schema version :data:`SCHEMA_VERSION`
(echoed in every success payload): an unknown field or an unregistered
``objective`` is a typed 400 error body, never a silent default or an
opaque 500.

Every endpoint is written once, in the route table below:
:func:`route_request` resolves the path and method (404 / 405), decodes
and checks the fields, and either answers at once with a :class:`Reply`
or hands back a :class:`ServiceCall` for the transport to run.  The two
transports — :class:`PMBCRequestHandler` here and
:class:`~repro.serve.aserver.AsyncPMBCServer` — only frame requests
(:func:`request_body_length`), write the reply bytes, and wait for the
service each in their own way.

Service errors map to HTTP statuses: invalid request → 400, queue full
→ 429 (with ``Retry-After``), deadline exceeded → 504, shutting down →
503, backend exhaustion → 500.  The threaded server is a
``ThreadingHTTPServer``: each connection gets a thread, but actual
query work is bounded by the service's queue and worker pool.
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, NamedTuple
from urllib.parse import parse_qs, urlparse

from repro.core.query import QueryRequest
from repro.core.verify import check_personalized_answer
from repro.graph.bipartite import Side
from repro.serve.service import (
    InvalidRequestError,
    PMBCService,
    QueryResult,
    ServeError,
)

__all__ = [
    "SCHEMA_VERSION",
    "Reply",
    "ServiceCall",
    "route_request",
    "error_reply",
    "request_body_length",
    "PMBCRequestHandler",
    "PMBCServer",
]

#: Version of the JSON request/response schema.  Bumped whenever a
#: field is added or its meaning changes; responses echo it so clients
#: can detect skew.  v2 added ``objective`` and strict unknown-field
#: rejection (a typo like ``objektive`` is a 400, not a silent default).
#: v3 added the sharded-serving response metadata: ``shard`` (which
#: shard answered) and ``degraded`` (the owner was down and the
#: request was rerouted) on query and batch payloads.
#: v4 added ``POST /update`` (streaming edge updates) and its
#: :class:`~repro.serve.service.UpdateResult`-shaped response payload.
SCHEMA_VERSION = 4

#: The fields each endpoint accepts.  A field mapped to a table is a
#: non-empty JSON array of objects, each checked against that table.
_BATCH_ITEM_FIELDS = dict.fromkeys(
    ("side", "vertex", "label", "tau_u", "tau_l", "trace_id", "objective")
)
_QUERY_FIELDS = dict.fromkeys(
    (*_BATCH_ITEM_FIELDS, "deadline", "verify", "explain")
)
_BATCH_FIELDS = {
    "queries": _BATCH_ITEM_FIELDS, "deadline": None, "explain": None
}
_UPDATE_ITEM_FIELDS = dict.fromkeys(("action", "u", "v"))
_UPDATE_FIELDS = {"updates": _UPDATE_ITEM_FIELDS}

#: Largest request body either front-end reads.
_MAX_BODY_BYTES = 8 * 1024 * 1024


def request_body_length(headers) -> int:
    """The body size a request's headers announce (0 if none).

    ``headers.get`` takes a lower-case header name.  A
    ``Transfer-Encoding`` (neither front-end decodes chunked bodies) or
    a non-integer, negative or over-cap ``Content-Length`` is an
    :class:`InvalidRequestError`; the caller answers 400 and closes the
    connection without reading the body.
    """
    if headers.get("transfer-encoding") is not None:
        raise InvalidRequestError(
            "Transfer-Encoding is not supported; send a Content-Length body"
        )
    raw = headers.get("content-length")
    try:
        length = int(raw or 0)
    except ValueError:
        length = -1
    if not 0 <= length <= _MAX_BODY_BYTES:
        raise InvalidRequestError(
            f"Content-Length must be an integer in [0, {_MAX_BODY_BYTES}],"
            f" got {raw!r}"
        )
    return length


def _reject_unknown(params: dict, allowed: dict, where: str) -> None:
    unknown = sorted(set(map(str, params)) - allowed.keys())
    if unknown:
        raise InvalidRequestError(
            f"unknown {where} field(s): {', '.join(map(repr, unknown))} "
            f"(schema v{SCHEMA_VERSION})"
        )


def _check_fields(params: dict, fields: dict, where: str) -> None:
    """Reject unknown fields, then check each array of objects in turn."""
    _reject_unknown(params, fields, where)
    for name, item_fields in fields.items():
        if item_fields is None:
            continue
        items = params.get(name)
        if not isinstance(items, list) or not items:
            raise InvalidRequestError(
                f"{name!r} must be a non-empty JSON array"
            )
        for position, item in enumerate(items):
            item_where = f"{name}[{position}]"
            if not isinstance(item, dict):
                raise InvalidRequestError(
                    f"{item_where} must be a JSON object"
                )
            _check_fields(item, item_fields, item_where)


def _parse_side(raw: str) -> Side:
    try:
        return Side(raw.lower())
    except ValueError:
        raise InvalidRequestError(
            f"side must be 'upper' or 'lower', got {raw!r}"
        ) from None


def _parse_int(params: dict, name: str, default: int | None = None) -> int:
    raw = params.get(name, default)
    if raw is None:
        raise InvalidRequestError(f"missing required parameter {name!r}")
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise InvalidRequestError(
            f"parameter {name!r} must be an integer, got {raw!r}"
        ) from None


def _parse_float(params: dict, name: str) -> float | None:
    raw = params.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise InvalidRequestError(
            f"parameter {name!r} must be a number, got {raw!r}"
        ) from None


def _parse_flag(params: dict, name: str) -> bool:
    """Truthiness of a query/body flag (``1``/``true``/``yes``/JSON true)."""
    raw = params.get(name, "")
    if isinstance(raw, bool):
        return raw
    return str(raw).lower() in ("1", "true", "yes")


def _admission(params: dict) -> dict:
    """The ``deadline``/``explain`` options of a query or batch."""
    return {
        "deadline": _parse_float(params, "deadline"),
        "explain": _parse_flag(params, "explain"),
    }


# ----------------------------------------------------------------------
# wire <-> domain translation


def _resolve_vertex(graph, params: dict, side: Side) -> int:
    """The dense vertex id from a ``vertex`` or ``label`` wire field."""
    label = params.get("label")
    if label is not None:
        try:
            return graph.vertex_by_label(side, label)
        except KeyError:
            raise InvalidRequestError(
                f"no {side.value} vertex labelled {label!r}"
            ) from None
    return _parse_int(params, "vertex")


def _build_query_request(graph, params: dict, where: str) -> QueryRequest:
    """A validated :class:`QueryRequest` from wire fields.

    Structural violations — an unregistered objective, a non-string
    trace id — surface as :class:`InvalidRequestError` (HTTP 400)
    rather than an opaque 500.
    """
    side = _parse_side(str(params.get("side", "")))
    vertex = _resolve_vertex(graph, params, side)
    tau_u = _parse_int(params, "tau_u", default=1)
    tau_l = _parse_int(params, "tau_l", default=1)
    trace_id = params.get("trace_id")
    try:
        return QueryRequest(
            side,
            vertex,
            tau_u,
            tau_l,
            objective=str(params.get("objective", "pmbc")),
            trace_id=str(trace_id) if trace_id else None,
        )
    except (TypeError, ValueError) as exc:
        raise InvalidRequestError(f"{where}: {exc}") from None


def _update_op(item: dict, position: int) -> tuple[str, int, int]:
    """One checked ``updates[position]`` entry as an op triple."""
    missing = sorted(_UPDATE_ITEM_FIELDS.keys() - item.keys())
    if missing:
        raise InvalidRequestError(
            f"updates[{position}] missing field(s): "
            f"{', '.join(map(repr, missing))}"
        )
    return (item["action"], item["u"], item["v"])


def _render_biclique(graph, biclique) -> dict | None:
    """The JSON shape of one answer (or None for an empty answer)."""
    if biclique is None:
        return None
    upper_labels, lower_labels = biclique.with_labels(graph)
    return {
        "shape": list(biclique.shape),
        "edges": biclique.num_edges,
        "upper": sorted(map(str, upper_labels)),
        "lower": sorted(map(str, lower_labels)),
    }


def _render_result(
    graph,
    result: QueryResult,
    request: QueryRequest,
    verify: bool,
) -> dict:
    """The full ``/query`` success payload."""
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "query": {
            "side": request.side.value,
            "vertex": request.vertex,
            "tau_u": request.tau_u,
            "tau_l": request.tau_l,
            "objective": request.objective,
        },
        "backend": result.backend,
        "shared": result.shared,
        "queue_ms": result.queue_seconds * 1e3,
        "total_ms": result.total_seconds * 1e3,
        "degraded": result.degraded,
    }
    if result.shard is not None:
        payload["shard"] = result.shard
    biclique = result.biclique
    payload["result"] = _render_biclique(graph, biclique)
    if result.trace is not None:
        payload["trace"] = result.trace
    if verify:
        # The structural certificate (query membership, constraint
        # satisfaction, completeness) is objective-agnostic.
        check = check_personalized_answer(
            graph,
            request.side,
            request.vertex,
            request.tau_u,
            request.tau_l,
            biclique,
        )
        payload["verified"] = {
            "valid": check.valid,
            "reasons": list(check.reasons),
        }
    return payload


def _render_update_result(result) -> dict:
    """The full ``POST /update`` success payload."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "applied": result.applied,
        "noops": result.noops,
        "inserts": result.inserts,
        "deletes": result.deletes,
        "trees_repaired": result.trees_repaired,
        "evicted": result.evicted,
        "cascade": result.cascade,
        "total_ms": result.seconds * 1e3,
    }
    if result.shard is not None:
        payload["shard"] = result.shard
    return payload


def _render_batch_result(graph, requests, result) -> dict:
    """The full ``/query_batch`` success payload."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "backend": result.backend,
        "count": len(result),
        "queue_ms": result.queue_seconds * 1e3,
        "total_ms": result.total_seconds * 1e3,
        "degraded": result.degraded,
        "results": [
            {
                "query": request.to_json(),
                "result": _render_biclique(graph, biclique),
            }
            for request, biclique in zip(requests, result.bicliques)
        ],
    }
    if result.shard is not None:
        payload["shard"] = result.shard
    if result.trace is not None:
        payload["trace"] = result.trace
    return payload


# ----------------------------------------------------------------------
# the route table


class Reply(NamedTuple):
    """A finished HTTP answer, ready for a transport to write."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = ()


def _reply(status: int, payload, headers=()) -> Reply:
    body = json.dumps(payload, indent=2).encode() + b"\n"
    return Reply(status, body, headers=headers)


def _error(status: int, name: str, detail: str) -> Reply:
    headers = (("Retry-After", "1"),) if status == 429 else ()
    return _reply(status, {"error": name, "detail": detail}, headers)


def error_reply(exc: ServeError) -> Reply:
    """The JSON error reply for a service error (its status and name)."""
    return _error(exc.http_status, type(exc).__name__, str(exc))


class ServiceCall(NamedTuple):
    """A checked request that still has to run on the service.

    ``name`` is the blocking service method — ``query``,
    ``query_batch`` or ``update_batch`` — to call as
    ``name(arg, **options)``; :meth:`respond` renders its result.
    """

    name: str
    arg: Any
    options: dict
    render: Callable[[Any], dict]

    def respond(self, result) -> Reply:
        """The 200 reply carrying the rendered ``result``."""
        return _reply(200, self.render(result))


def _healthz(service, params: dict) -> Reply:
    if service.healthy():
        return _reply(200, {"status": "ok"})
    return _reply(503, {"status": "unavailable"})


def _metrics(service, params: dict) -> Reply:
    body = service.metrics.render().encode()
    return Reply(200, body, "text/plain; version=0.0.4")


def _stats(service, params: dict) -> Reply:
    return _reply(200, service.stats())


def _debug_traces(service, params: dict) -> Reply:
    ring = service.traces
    trace_id = params.get("id")
    if trace_id is not None:
        trace = ring.find(str(trace_id))
        if trace is None:
            return _error(404, "NotFound", f"no buffered trace {trace_id!r}")
        return _reply(200, {"trace": trace})
    limit = _parse_int(params, "limit", default=20)
    return _reply(
        200,
        {
            "buffered": len(ring),
            "capacity": ring.capacity,
            "recorded": ring.total_recorded,
            "traces": ring.snapshot(limit=limit),
        },
    )


def _query(service, params: dict) -> ServiceCall:
    graph = service.graph
    request = _build_query_request(graph, params, "query")
    verify = _parse_flag(params, "verify")
    return ServiceCall(
        "query",
        request,
        _admission(params),
        lambda result: _render_result(graph, result, request, verify),
    )


def _query_batch(service, params: dict) -> ServiceCall:
    graph = service.graph
    requests = [
        _build_query_request(graph, item, f"queries[{position}]")
        for position, item in enumerate(params["queries"])
    ]
    return ServiceCall(
        "query_batch",
        requests,
        _admission(params),
        lambda result: _render_batch_result(graph, requests, result),
    )


def _update(service, params: dict) -> ServiceCall:
    ops = [
        _update_op(item, position)
        for position, item in enumerate(params["updates"])
    ]
    return ServiceCall("update_batch", ops, {}, _render_update_result)


#: path -> (methods, handler, (name, fields) checked before the handler).
_ROUTES = {
    "/healthz": (("GET",), _healthz, None),
    "/metrics": (("GET",), _metrics, None),
    "/stats": (("GET",), _stats, None),
    "/debug/traces": (("GET",), _debug_traces, None),
    "/query": (("GET", "POST"), _query, ("query", _QUERY_FIELDS)),
    "/query_batch": (("POST",), _query_batch, ("batch", _BATCH_FIELDS)),
    "/update": (("POST",), _update, ("update", _UPDATE_FIELDS)),
}


def route_request(
    service, method: str, target: str, body: bytes
) -> Reply | ServiceCall:
    """Everything one request needs short of the socket and the wait.

    Resolves the route (404 for an unknown path, 405 for a known path
    with the wrong method), decodes the query string or JSON body,
    checks the fields and answers the endpoints that need no service
    call.  A query, batch or update comes back as a
    :class:`ServiceCall`; every failure comes back as a JSON error
    :class:`Reply`.
    """
    parsed = urlparse(target)
    path = parsed.path.rstrip("/") or "/"
    if path not in _ROUTES:
        return _error(404, "NotFound", f"no route {path!r}")
    methods, handler, checked = _ROUTES[path]
    if method not in methods:
        return _error(
            405, "MethodNotAllowed", f"{path!r} does not accept {method}"
        )
    try:
        if method == "POST":
            try:
                params = json.loads(body or b"{}")
            except ValueError as exc:
                raise InvalidRequestError(str(exc)) from None
            if not isinstance(params, dict):
                raise InvalidRequestError("body must be a JSON object")
        else:
            params = {
                key: values[-1]
                for key, values in parse_qs(parsed.query).items()
            }
        if checked is not None:
            where, fields = checked
            _check_fields(params, fields, where)
        return handler(service, params)
    except ServeError as exc:
        return error_reply(exc)


# ----------------------------------------------------------------------
# the threaded transport


class PMBCRequestHandler(BaseHTTPRequestHandler):
    """Serves each request through :func:`route_request`, one thread each.

    A :class:`ServiceCall` runs on the connection's thread through the
    service's blocking ``query``/``query_batch``/``update_batch``.
    """

    server_version = "pmbc-serve/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> PMBCService:
        """The PMBCService this handler dispatches into."""
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        """Suppress per-request stderr logging unless verbose."""
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        """Serve a GET request."""
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        """Serve a POST request."""
        self._serve("POST")

    def send_error(self, code: int, message=None, explain=None) -> None:
        """Answer http.server's own rejections with a JSON error body.

        http.server calls this for a malformed request line (400), an
        unsupported method (501) and an over-long line or header block
        (414/431).  A malformed line leaves the version at HTTP/0.9,
        whose replies carry no status line, so the reply is HTTP/1.1.
        """
        self.log_error("code %d, message %s", code, message)
        self.request_version = self.protocol_version
        status = HTTPStatus(code)
        if status == HTTPStatus.BAD_REQUEST:
            reply = error_reply(InvalidRequestError(message or status.phrase))
        else:
            name = status.phrase.replace(" ", "").replace("-", "")
            reply = _error(code, name, message or status.phrase)
        self._write(reply, close=True)

    def _serve(self, method: str) -> None:
        try:
            length = request_body_length(self.headers)
        except InvalidRequestError as exc:
            # The unread body makes the connection unusable.
            self._write(error_reply(exc), close=True)
            return
        # Read the body before any answer, even a 404: left unread on a
        # keep-alive connection it would be parsed as the next request.
        body = self.rfile.read(length) if length else b""
        reply = route_request(self.service, method, self.path, body)
        if isinstance(reply, ServiceCall):
            call = reply
            try:
                result = getattr(self.service, call.name)(
                    call.arg, **call.options
                )
                reply = call.respond(result)
            except ServeError as exc:
                reply = error_reply(exc)
        self._write(reply)

    def _write(self, reply: Reply, close: bool = False) -> None:
        self.send_response(reply.status)
        self.send_header("Content-Type", reply.content_type)
        self.send_header("Content-Length", str(len(reply.body)))
        for name, value in reply.headers:
            self.send_header(name, value)
        if close:
            self.send_header("Connection", "close")
        # Head and body leave in one write: flushing the head first
        # (end_headers) would let Nagle's algorithm hold the body until
        # the client's delayed ACK on a keep-alive connection.
        head = getattr(self, "_headers_buffer", [])  # none on HTTP/0.9
        if head:
            head.append(b"\r\n")
        self.wfile.write(b"".join(head) + reply.body)
        self._headers_buffer = []


class PMBCServer:
    """Owns a :class:`ThreadingHTTPServer` bound to a service.

    ``port=0`` picks a free port (useful in tests); read the bound
    address from :attr:`address`.  Use :meth:`start` for a background
    thread or :meth:`serve_forever` to block.
    """

    def __init__(
        self,
        service: PMBCService,
        host: str = "127.0.0.1",
        port: int = 8642,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), PMBCRequestHandler)
        self._httpd.service = service  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL of the bound socket."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> PMBCServer:
        """Serve in a daemon thread; returns once the socket is live."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="pmbc-serve-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop the HTTP loop and close the underlying service.

        Teardown order matters: stop the ``serve_forever`` loop and
        **join the acceptor thread first**, then close the listening
        socket, and only then close the service (which tears down its
        executor).  Closing the socket or the service while the
        acceptor is still dispatching lets a late connection race a
        dying executor — the CI-flake class this ordering eliminates.
        """
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
        self.service.close()

    def __enter__(self) -> PMBCServer:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
