"""Request bodies are framed safely on both front-ends.

A negative, non-integer or over-cap ``Content-Length`` must be answered
at once with a JSON 400 and a closed connection — never a hang (the
threaded front-end used to block in ``rfile.read(-1)``), a dropped
connection, or a huge allocation — and the server must keep serving
afterwards.  A body sent to an unknown route is consumed, not parsed as
the next request on the connection.  Neither front-end decodes chunked
bodies, so a ``Transfer-Encoding`` header gets the same 400 and close.
"""

from __future__ import annotations

import json
import re
import socket

import pytest

from repro.serve import (
    AsyncPMBCServer,
    PMBCClient,
    PMBCServer,
    PMBCService,
    ServiceConfig,
)
from repro.serve.server import _MAX_BODY_BYTES

FRONT_ENDS = {"threaded": PMBCServer, "asyncio": AsyncPMBCServer}


@pytest.fixture(params=sorted(FRONT_ENDS))
def server(request, paper_graph):
    service = PMBCService(
        paper_graph, config=ServiceConfig(num_workers=2, max_queue=16)
    ).start()
    server = FRONT_ENDS[request.param](service, port=0).start()
    try:
        yield server
    finally:
        server.shutdown()


def _exchange(address, raw: bytes) -> bytes:
    """Send ``raw`` on one connection and read until the server closes."""
    with socket.create_connection(address, timeout=3) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)  # socket.timeout fails the test
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _post_with_length(address, length: str) -> tuple[int, dict]:
    """Send a body-less POST announcing ``length``; parse the answer."""
    reply = _exchange(
        address,
        b"POST /query HTTP/1.1\r\nHost: test\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + length.encode() + b"\r\n\r\n",
    )
    head, __, body = reply.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


@pytest.mark.parametrize(
    "length", ["-1", "abc", str(_MAX_BODY_BYTES + 1)]
)
def test_bad_content_length_is_400_and_server_survives(server, length):
    status, payload = _post_with_length(server.address, length)
    assert status == 400
    assert payload["error"] == "InvalidRequestError"
    assert "Content-Length" in payload["detail"]
    assert PMBCClient(server.url, timeout=3).healthz()


def test_body_of_unknown_route_is_not_a_request(server):
    smuggled = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
    reply = _exchange(
        server.address,
        b"POST /nope HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: %d\r\n\r\n" % len(smuggled)
        + smuggled
        + b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    )
    assert re.findall(rb"HTTP/1\.1 (\d{3}) ", reply) == [b"404", b"200"]


def test_transfer_encoding_is_400_and_body_unread(server):
    reply = _exchange(
        server.address,
        b"POST /query HTTP/1.1\r\nHost: test\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        b"5\r\nhello\r\n0\r\n\r\n",
    )
    # One answer: the chunk is neither decoded nor read as a request.
    assert re.findall(rb"HTTP/1\.1 (\d{3}) ", reply) == [b"400"]
    head, __, body = reply.partition(b"\r\n\r\n")
    assert b"Connection: close" in head
    payload = json.loads(body)
    assert payload["error"] == "InvalidRequestError"
    assert "Transfer-Encoding" in payload["detail"]
    assert PMBCClient(server.url, timeout=3).healthz()


def test_body_of_a_get_is_not_a_request(server):
    smuggled = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
    reply = _exchange(
        server.address,
        b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        b"Content-Length: %d\r\n\r\n" % len(smuggled)
        + smuggled,
    )
    assert re.findall(rb"HTTP/1\.1 (\d{3}) ", reply) == [b"200"]
