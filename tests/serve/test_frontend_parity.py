"""Both HTTP front-ends answer every request alike.

One table of requests goes to the threaded :class:`PMBCServer` and to
the asyncio :class:`AsyncPMBCServer`, each over a plain
:class:`PMBCService` on the same graph.  Each row must get the same
status, the same ``error`` name and the same top-level JSON keys from
both — the two share one route table, so any difference is a transport
bug.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.graph.generators import paper_example_graph
from repro.serve import AsyncPMBCServer, PMBCServer, PMBCService, ServiceConfig


def _request(method: str, target: str, body: dict | None = None) -> bytes:
    data = b"" if body is None else json.dumps(body).encode()
    return (
        f"{method} {target} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n"
    ).encode() + data


QUERY = {"side": "upper", "vertex": 0, "tau_u": 1, "tau_l": 1}

#: name -> raw request bytes.  Rows run in order on one server pair.
ROWS = {
    "healthz": _request("GET", "/healthz"),
    "metrics": _request("GET", "/metrics"),
    "stats": _request("GET", "/stats"),
    "query_get": _request(
        "GET", "/query?side=upper&vertex=0&tau_u=1&tau_l=1&verify=1"
    ),
    "query_post": _request("POST", "/query", dict(QUERY, explain=True)),
    "query_batch": _request(
        "POST",
        "/query_batch",
        {"queries": [QUERY, {"side": "lower", "vertex": 1}]},
    ),
    "update": _request(
        "POST", "/update", {"updates": [{"action": "insert", "u": 0, "v": 1}]}
    ),
    "debug_traces": _request("GET", "/debug/traces?limit=2"),
    "unknown_field": _request("GET", "/query?side=upper&vertex=0&bogus=1"),
    "bad_side": _request("GET", "/query?side=diagonal&vertex=0"),
    "missing_vertex": _request("GET", "/query?side=upper"),
    "unknown_label": _request(
        "POST", "/query", {"side": "upper", "label": "no-such-label"}
    ),
    "empty_batch": _request("POST", "/query_batch", {"queries": []}),
    "bad_update_item": _request(
        "POST", "/update", {"updates": [{"action": "insert", "u": 0}]}
    ),
    "unknown_path": _request("GET", "/nope"),
    "post_healthz": _request("POST", "/healthz", {}),
    "get_update": _request("GET", "/update"),
    "malformed_line": b"GARBAGE\r\n\r\n",
    "traces_bad_limit": _request("GET", "/debug/traces?limit=x"),
    "traces_unknown_id": _request("GET", "/debug/traces?id=nope"),
}


def _exchange(address, raw: bytes) -> tuple[int | None, str, object]:
    """Send one request; return (status, content type, decoded body).

    A reply without an HTTP status line reads as status ``None``.
    """
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    reply = b"".join(chunks)
    if not reply.startswith(b"HTTP/1.1 "):
        return None, "", reply.decode("latin-1")
    head, __, body = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    status, content_type = int(lines[0].split()[1]), headers["Content-Type"]
    if content_type == "application/json":
        return status, content_type, json.loads(body)
    return status, content_type, body.decode()


@pytest.fixture(scope="module")
def answers():
    graph = paper_example_graph()
    out = {}
    for name, front_end in (
        ("threaded", PMBCServer),
        ("asyncio", AsyncPMBCServer),
    ):
        service = PMBCService(
            graph, config=ServiceConfig(num_workers=2, max_queue=16)
        ).start()
        with front_end(service, port=0) as server:
            out[name] = {
                row: _exchange(server.address, raw)
                for row, raw in ROWS.items()
            }
    return out


@pytest.mark.parametrize("row", list(ROWS))
def test_front_ends_agree(answers, row):
    threaded, asyncio_ = answers["threaded"][row], answers["asyncio"][row]
    assert threaded[:2] == asyncio_[:2]
    if isinstance(threaded[2], dict):
        assert threaded[2].get("error") == asyncio_[2].get("error")
        assert sorted(threaded[2]) == sorted(asyncio_[2])


EXPECTED_STATUS = {
    "unknown_field": 400,
    "bad_side": 400,
    "missing_vertex": 400,
    "unknown_label": 400,
    "empty_batch": 400,
    "bad_update_item": 400,
    "unknown_path": 404,
    "post_healthz": 405,
    "get_update": 405,
    "malformed_line": 400,
    "traces_bad_limit": 400,
    "traces_unknown_id": 404,
}


@pytest.mark.parametrize("row", list(ROWS))
def test_row_status(answers, row):
    status, __, payload = answers["threaded"][row]
    assert status == EXPECTED_STATUS.get(row, 200), payload
    if status == 400:
        assert payload["error"] == "InvalidRequestError"
