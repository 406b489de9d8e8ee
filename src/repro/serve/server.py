"""A stdlib HTTP/JSON front-end over :class:`PMBCService`.

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

Service errors map to HTTP statuses: invalid request → 400, queue full
→ 429 (with ``Retry-After``), deadline exceeded → 504, shutting down →
503, backend exhaustion → 500.  The server is a
``ThreadingHTTPServer``: each connection gets a thread, but actual
query work is bounded by the service's queue and worker pool.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core.query import QueryRequest
from repro.core.verify import check_personalized_answer
from repro.graph.bipartite import Side
from repro.serve.service import (
    InvalidRequestError,
    PMBCService,
    QueryResult,
    QueueFullError,
    ServeError,
)

__all__ = [
    "SCHEMA_VERSION",
    "PMBCRequestHandler",
    "PMBCServer",
    "serve_forever",
    "build_query_request",
    "parse_batch_item",
    "parse_update_item",
    "render_biclique",
    "render_result",
    "render_batch_result",
    "render_update_result",
    "resolve_vertex",
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

_QUERY_FIELDS = frozenset(
    {
        "side", "vertex", "label", "tau_u", "tau_l",
        "deadline", "verify", "explain", "trace_id", "objective",
    }
)
_BATCH_FIELDS = frozenset({"queries", "deadline", "explain"})
_BATCH_ITEM_FIELDS = frozenset(
    {"side", "vertex", "label", "tau_u", "tau_l", "trace_id", "objective"}
)
_UPDATE_FIELDS = frozenset({"updates"})
_UPDATE_ITEM_FIELDS = frozenset({"action", "u", "v"})

#: Largest request body either front-end reads.
_MAX_BODY_BYTES = 8 * 1024 * 1024


def _content_length(raw: str | None) -> int:
    """The body size a ``Content-Length`` header announces (0 if absent).

    A non-integer, negative or over-cap value is an
    :class:`InvalidRequestError`; the caller answers 400 and closes the
    connection without reading the body.
    """
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


def _reject_unknown(params: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(map(str, params)) - allowed)
    if unknown:
        raise InvalidRequestError(
            f"unknown {where} field(s): {', '.join(map(repr, unknown))} "
            f"(schema v{SCHEMA_VERSION})"
        )


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


# ----------------------------------------------------------------------
# wire <-> domain translation, shared by the threaded front-end below
# and the asyncio front-end (repro.serve.aserver)


def resolve_vertex(graph, params: dict, side: Side) -> int:
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


def build_query_request(graph, params: dict, where: str) -> QueryRequest:
    """A validated :class:`QueryRequest` from wire fields.

    Structural violations — an unregistered objective, a non-string
    trace id — surface as :class:`InvalidRequestError` (HTTP 400)
    rather than an opaque 500.
    """
    side = _parse_side(str(params.get("side", "")))
    vertex = resolve_vertex(graph, params, side)
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


def parse_batch_item(graph, item, position: int) -> QueryRequest:
    """One validated batch entry (``queries[position]``)."""
    if not isinstance(item, dict):
        raise InvalidRequestError(
            f"queries[{position}] must be a JSON object"
        )
    where = f"queries[{position}]"
    _reject_unknown(item, _BATCH_ITEM_FIELDS, where)
    return build_query_request(graph, item, where)


def render_biclique(graph, biclique) -> dict | None:
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


def render_result(
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
    payload["result"] = render_biclique(graph, biclique)
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


def parse_update_item(item, position: int) -> tuple[str, int, int]:
    """One validated ``updates[position]`` entry as an op triple."""
    if not isinstance(item, dict):
        raise InvalidRequestError(
            f"updates[{position}] must be a JSON object"
        )
    _reject_unknown(item, _UPDATE_ITEM_FIELDS, f"updates[{position}]")
    missing = sorted(_UPDATE_ITEM_FIELDS - set(item))
    if missing:
        raise InvalidRequestError(
            f"updates[{position}] missing field(s): "
            f"{', '.join(map(repr, missing))}"
        )
    return (item["action"], item["u"], item["v"])


def render_update_result(result) -> dict:
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


def render_batch_result(graph, requests, result) -> dict:
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
                "result": render_biclique(graph, biclique),
            }
            for request, biclique in zip(requests, result.bicliques)
        ],
    }
    if result.shard is not None:
        payload["shard"] = result.shard
    if result.trace is not None:
        payload["trace"] = result.trace
    return payload


class PMBCRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's ``service``."""

    server_version = "pmbc-serve/1.0"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # plumbing

    @property
    def service(self) -> PMBCService:
        """The PMBCService this handler dispatches into."""
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        """Suppress per-request stderr logging unless verbose."""
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        # Head and body leave in one write: flushing the head first
        # (end_headers) would let Nagle's algorithm hold the body until
        # the client's delayed ACK on a keep-alive connection.
        head = getattr(self, "_headers_buffer", [])  # none on HTTP/0.9
        if head:
            head.append(b"\r\n")
        self.wfile.write(b"".join(head) + body)
        self._headers_buffer = []

    def _send_json(
        self,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, indent=2).encode() + b"\n"
        self._send(status, body, extra_headers=extra_headers)

    def _send_error_json(self, exc: ServeError) -> None:
        headers = {}
        if isinstance(exc, QueueFullError):
            headers["Retry-After"] = "1"
        self._send_json(
            exc.http_status,
            {"error": type(exc).__name__, "detail": str(exc)},
            extra_headers=headers,
        )

    # ------------------------------------------------------------------
    # routing

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        """Route GET requests (healthz/metrics/stats/query/debug)."""
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        if route == "/healthz":
            self._handle_healthz()
        elif route == "/metrics":
            self._handle_metrics()
        elif route == "/stats":
            self._handle_stats()
        elif route == "/debug/traces":
            params = {
                key: values[-1]
                for key, values in parse_qs(parsed.query).items()
            }
            self._handle_debug_traces(params)
        elif route == "/query":
            params = {
                key: values[-1]
                for key, values in parse_qs(parsed.query).items()
            }
            self._handle_query(params)
        else:
            self._send_json(
                404, {"error": "NotFound", "detail": f"no route {route!r}"}
            )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        """Route POST requests (/query and /query_batch)."""
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/")
        try:
            length = _content_length(self.headers.get("Content-Length"))
        except InvalidRequestError as exc:
            # The unread body makes the connection unusable.
            self._send_json(
                400,
                {"error": type(exc).__name__, "detail": str(exc)},
                extra_headers={"Connection": "close"},
            )
            return
        # Read the body before any answer, even a 404: left unread on a
        # keep-alive connection it would be parsed as the next request.
        raw = self.rfile.read(length) if length else b"{}"
        if route not in ("/query", "/query_batch", "/update"):
            self._send_json(
                404,
                {"error": "NotFound", "detail": f"no route {parsed.path!r}"},
            )
            return
        try:
            params = json.loads(raw or b"{}")
            if not isinstance(params, dict):
                raise ValueError("body must be a JSON object")
        except ValueError as exc:
            self._send_json(
                400, {"error": "InvalidRequestError", "detail": str(exc)}
            )
            return
        if route == "/query_batch":
            self._handle_query_batch(params)
        elif route == "/update":
            self._handle_update(params)
        else:
            self._handle_query(params)

    # ------------------------------------------------------------------
    # handlers

    def _handle_healthz(self) -> None:
        if self.service.healthy():
            self._send_json(200, {"status": "ok"})
        else:
            self._send_json(503, {"status": "unavailable"})

    def _handle_metrics(self) -> None:
        body = self.service.metrics.render().encode()
        self._send(200, body, content_type="text/plain; version=0.0.4")

    def _handle_stats(self) -> None:
        self._send_json(200, self.service.stats())

    def _handle_debug_traces(self, params: dict) -> None:
        trace_id = params.get("id")
        if trace_id is not None:
            trace = self.service.traces.find(str(trace_id))
            if trace is None:
                self._send_json(
                    404,
                    {
                        "error": "NotFound",
                        "detail": f"no buffered trace {trace_id!r}",
                    },
                )
                return
            self._send_json(200, {"trace": trace})
            return
        try:
            limit = _parse_int(params, "limit", default=20)
        except ServeError as exc:
            self._send_error_json(exc)
            return
        ring = self.service.traces
        self._send_json(
            200,
            {
                "buffered": len(ring),
                "capacity": ring.capacity,
                "recorded": ring.total_recorded,
                "traces": ring.snapshot(limit=limit),
            },
        )

    def _handle_query(self, params: dict) -> None:
        service = self.service
        graph = service.graph
        try:
            _reject_unknown(params, _QUERY_FIELDS, "query")
            request = build_query_request(graph, params, "query")
            deadline = _parse_float(params, "deadline")
            verify = _parse_flag(params, "verify")
            explain = _parse_flag(params, "explain")
            result = service.query(
                request, deadline=deadline, explain=explain
            )
        except ServeError as exc:
            self._send_error_json(exc)
            return
        self._send_json(200, render_result(graph, result, request, verify))

    def _handle_query_batch(self, params: dict) -> None:
        service = self.service
        graph = service.graph
        try:
            _reject_unknown(params, _BATCH_FIELDS, "batch")
            queries = params.get("queries")
            if not isinstance(queries, list) or not queries:
                raise InvalidRequestError(
                    "'queries' must be a non-empty JSON array"
                )
            requests = [
                parse_batch_item(graph, item, position)
                for position, item in enumerate(queries)
            ]
            deadline = _parse_float(params, "deadline")
            explain = _parse_flag(params, "explain")
            result = service.query_batch(
                requests, deadline=deadline, explain=explain
            )
        except ServeError as exc:
            self._send_error_json(exc)
            return
        self._send_json(200, render_batch_result(graph, requests, result))

    def _handle_update(self, params: dict) -> None:
        service = self.service
        try:
            _reject_unknown(params, _UPDATE_FIELDS, "update")
            updates = params.get("updates")
            if not isinstance(updates, list) or not updates:
                raise InvalidRequestError(
                    "'updates' must be a non-empty JSON array"
                )
            ops = [
                parse_update_item(item, position)
                for position, item in enumerate(updates)
            ]
            result = service.update_batch(ops)
        except ServeError as exc:
            self._send_error_json(exc)
            return
        self._send_json(200, render_update_result(result))


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


def serve_forever(
    service: PMBCService,
    host: str = "127.0.0.1",
    port: int = 8642,
    verbose: bool = False,
) -> None:
    """Convenience: run a server in the foreground until interrupted."""
    server = PMBCServer(service, host=host, port=port, verbose=verbose)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
