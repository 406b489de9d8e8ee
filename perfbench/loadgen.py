"""HTTP load generation: open and closed loops over at most two connections.

One load-generator process drives the server with at most two
connections.  Every request is recorded as a :class:`Rec` carrying its
schedule (``due``), the moment it was written to the socket (``sent``),
the moment the reply was read (``done``) and its outcome, so latency
can be taken from the scheduled arrival (open loop) or from the send
(closed loop), and the generator's own lateness can be reported.

Outcomes: ``ok``; ``refused`` (429/503), ``timeout`` (504 or socket
timeout), ``transport`` (refused/reset connection, malformed reply) and
``error`` (any other status).  Everything but ``ok`` is a failure.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlencode

#: Seconds one HTTP exchange may take before it counts as timed out.
SOCKET_TIMEOUT = 10.0


@dataclass
class Rec:
    """One request as the client saw it."""

    kind: str                 # "query" | "batch" | "update"
    rid: str
    item: object              # what was asked (for the correctness gate)
    due: float                # scheduled send time (perf_counter clock)
    free: float = 0.0         # when a connection became free for it
    sent: float = 0.0
    done: float = 0.0
    outcome: str = "pending"
    answer: object = None     # parsed answer payload (for the gate)
    window: tuple | None = None   # graph states a read under churn may see

    @property
    def latency(self) -> float:
        """Seconds from scheduled arrival to reply."""
        return self.done - self.due

    @property
    def wall(self) -> float:
        """Seconds from send to reply (what one exchange took)."""
        return self.done - self.sent

    @property
    def lag(self) -> float:
        """How late the generator itself sent the request."""
        return self.sent - max(self.due, self.free)


class Conn:
    """One client connection slot: one request at a time, each on its own
    TCP connection closed after the reply (``Connection: close``), the
    way :class:`repro.serve.client.PMBCClient` talks to the server.

    Keep-alive is not used: the threaded front-end writes the headers
    and the body of a response separately, so on a reused connection
    every reply stalls on Nagle's algorithm against the client's delayed
    ACK (about 40 ms on Linux), which would swamp every layer measured.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def exchange(self, rec: Rec, method: str, path: str, body=None):
        """Send one request; fill ``rec`` timing/outcome; return payload."""
        headers = {"X-Bench-Id": rec.rid, "Connection": "close"}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        rec.sent = time.perf_counter()
        http_conn = http.client.HTTPConnection(
            self.host, self.port, timeout=SOCKET_TIMEOUT
        )
        try:
            http_conn.request(method, path, body=data, headers=headers)
            response = http_conn.getresponse()
            raw = response.read()
            status = response.status
        except (socket.timeout, TimeoutError):
            rec.done = time.perf_counter()
            rec.outcome = "timeout"
            return None
        except (OSError, http.client.HTTPException):
            rec.done = time.perf_counter()
            rec.outcome = "transport"
            return None
        finally:
            http_conn.close()
        rec.done = time.perf_counter()
        if status == 200:
            try:
                payload = json.loads(raw)
            except ValueError:
                rec.outcome = "transport"
                return None
            rec.outcome = "ok"
            return payload
        rec.outcome = {429: "refused", 503: "refused", 504: "timeout"}.get(
            status, "error"
        )
        return None


def query_path(rid: str, side: str, vertex: int, tau_u: int, tau_l: int) -> str:
    """The ``GET /query`` path for one single query."""
    return "/query?" + urlencode(
        {
            "side": side,
            "vertex": vertex,
            "tau_u": tau_u,
            "tau_l": tau_l,
            "trace_id": rid,
        }
    )


def answer_of(result):
    """The gate-relevant part of one rendered answer (or None)."""
    if result is None:
        return None
    return (result["edges"], tuple(result["upper"]), tuple(result["lower"]))


def send_query(conn: Conn, rec: Rec) -> None:
    """Send a single ``/query``; ``rec.item`` is ``(side, v, tu, tl)``."""
    side, vertex, tau_u, tau_l = rec.item
    payload = conn.exchange(
        rec, "GET", query_path(rec.rid, side, vertex, tau_u, tau_l)
    )
    if payload is not None:
        rec.answer = answer_of(payload["result"])


def send_batch(conn: Conn, rec: Rec) -> None:
    """Send one ``/query_batch``; ``rec.item`` is a list of query tuples."""
    body = {
        "queries": [
            {
                "side": side,
                "vertex": vertex,
                "tau_u": tau_u,
                "tau_l": tau_l,
                "trace_id": rec.rid,
            }
            for side, vertex, tau_u, tau_l in rec.item
        ]
    }
    payload = conn.exchange(rec, "POST", "/query_batch", body)
    if payload is not None:
        results = payload.get("results") or []
        if len(results) != len(rec.item):
            rec.outcome = "error"
            return
        rec.answer = [answer_of(r["result"]) for r in results]


def send_update(conn: Conn, rec: Rec) -> None:
    """Send one ``/update``; ``rec.item`` is a list of ``(action, u, v)``."""
    body = {
        "updates": [
            {"action": action, "u": u, "v": v} for action, u, v in rec.item
        ]
    }
    payload = conn.exchange(rec, "POST", "/update", body)
    if payload is not None:
        rec.answer = (payload.get("applied"), payload.get("noops"))


def open_loop(
    conns: list[Conn],
    recs: list[Rec],
    send,
    hard_stop: float,
) -> None:
    """Send ``recs`` at their ``due`` times over ``conns`` (one thread each).

    A request waits for a free connection when every connection is
    busy; that wait is the system's and shows in the latency, which is
    taken from ``due``.  Requests still unsent at ``hard_stop`` are
    failed as ``timeout`` without being sent.
    """
    lock = threading.Lock()
    cursor = [0]

    def worker(conn: Conn) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(recs):
                return
            rec = recs[i]
            rec.free = time.perf_counter()
            if rec.free > hard_stop:
                rec.sent = rec.done = rec.free
                rec.outcome = "timeout"
                continue
            wait = rec.due - rec.free
            if wait > 0:
                time.sleep(wait)
            send(conn, rec)

    threads = [
        threading.Thread(target=worker, args=(c,), daemon=True) for c in conns
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def closed_loop(conn: Conn, next_rec, send, end: float) -> list[Rec]:
    """Send ``next_rec()`` back to back on one connection until ``end``.

    ``next_rec(now)`` returns the next :class:`Rec` (due now) or None
    when the stream is exhausted.
    """
    recs = []
    while True:
        now = time.perf_counter()
        if now >= end:
            return recs
        rec = next_rec(now)
        if rec is None:
            return recs
        rec.free = now
        send(conn, rec)
        recs.append(rec)


def schedule(items, rate: float, start: float, kind: str, prefix: str):
    """Open-loop records for ``items`` at ``rate`` per second from ``start``."""
    return [
        Rec(kind=kind, rid=f"{prefix}{i}", item=item, due=start + i / rate)
        for i, item in enumerate(items)
    ]
