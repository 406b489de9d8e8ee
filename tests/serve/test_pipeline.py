"""The one request pipeline and the live graph behind it.

- a single query is a batch of one: ``query(r)`` and
  ``query_batch([r])`` answer alike and account alike, on the index,
  thread-engine and process configurations, while the single keeps its
  ``kind="query"`` trace and the batch its ``kind="batch"`` trace;
- labels survive updates: after ``POST /update`` both front-ends
  resolve ``label=`` queries and name edge-file labels in answers;
- the threaded front-end sends each response in one write.
"""

from __future__ import annotations

import io
from types import SimpleNamespace

import pytest

from repro.core import build_index_star
from repro.core.query import QueryRequest
from repro.graph.bipartite import BipartiteGraph, Side
from repro.serve import (
    AsyncPMBCServer,
    PMBCClient,
    PMBCServer,
    PMBCService,
    ServiceConfig,
)
from repro.serve.server import PMBCRequestHandler, route_request
from repro.shard import ShardedService

# ----------------------------------------------------------------------
# single == batch of one


@pytest.mark.parametrize("config", ["index", "engine", "process"])
def test_single_and_batch_of_one_agree(paper_graph, config):
    index = build_index_star(paper_graph) if config == "index" else None
    execution = "process" if config == "process" else "thread"
    service_config = ServiceConfig(num_workers=2, execution=execution)
    requests = [
        QueryRequest(side, vertex, tau, tau)
        for side in Side
        for vertex in range(paper_graph.num_vertices_on(side))
        for tau in (1, 2)
    ]
    with PMBCService(
        paper_graph, index=index, config=service_config
    ) as service:
        for request in requests:
            before = service.stats()
            single = service.query(request, explain=True)
            middle = service.stats()
            batch = service.query_batch([request], explain=True)
            after = service.stats()

            assert single.backend == batch.backend == config
            assert single.biclique == batch.bicliques[0]
            assert single.trace["meta"]["kind"] == "query"
            assert batch.trace["meta"]["kind"] == "batch"
            status = "ok" if single.biclique is not None else "empty"
            for start, end in ((before, middle), (middle, after)):
                delta = {
                    key: end["requests"][key] - start["requests"][key]
                    for key in end["requests"]
                }
                assert delta == {
                    key: int(key == status) for key in end["requests"]
                }
                assert (
                    end["latency_seconds"]["count"]
                    == start["latency_seconds"]["count"] + 1
                )
            # Only the batch observes the batch-size histogram.
            assert middle["batch"]["count"] == before["batch"]["count"]
            assert after["batch"]["count"] == middle["batch"]["count"] + 1


# ----------------------------------------------------------------------
# labels across updates


def _labelled(graph):
    return BipartiteGraph(
        [graph.neighbors(Side.UPPER, u) for u in range(graph.num_upper)],
        num_lower=graph.num_lower,
        upper_labels=[f"u{u}" for u in range(graph.num_upper)],
        lower_labels=[f"l{v}" for v in range(graph.num_lower)],
    )


@pytest.fixture(params=["threaded", "async"])
def labelled_client(request, paper_graph):
    graph = _labelled(paper_graph)
    if request.param == "threaded":
        server = PMBCServer(PMBCService(graph).start(), port=0).start()
    else:
        server = AsyncPMBCServer(ShardedService(graph, 2).start(), port=0)
        server.start()
    try:
        yield graph, PMBCClient(server.url, timeout=10)
    finally:
        server.shutdown()


def test_label_queries_survive_updates(labelled_client):
    graph, client = labelled_client
    u, v = next(
        (u, v)
        for u in range(graph.num_upper)
        for v in range(graph.num_lower)
        if not graph.has_edge(u, v)
    )
    assert client.update([("insert", u, v)])["applied"] == 1
    payload = client.query(side="upper", label=f"u{u}")
    result = payload["result"]
    assert result is not None
    assert f"u{u}" in result["upper"]
    assert set(result["upper"]) <= set(graph.labels(Side.UPPER))
    assert set(result["lower"]) <= set(graph.labels(Side.LOWER))


def test_grown_vertices_are_labelled_by_id(paper_graph):
    graph = _labelled(paper_graph)
    with PMBCService(graph) as service:
        u = graph.num_upper
        service.update_batch([("insert", u, 0), ("insert", 0, 0)])
        after = service.graph
        assert after.label(Side.UPPER, u) == u
        assert after.vertex_by_label(Side.UPPER, u) == u
        assert after.vertex_by_label(Side.UPPER, "u1") == 1
        assert after.labels(Side.LOWER) == graph.labels(Side.LOWER)


# ----------------------------------------------------------------------
# one write per response


class _RecordingFile(io.RawIOBase):
    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


def test_threaded_response_is_one_write():
    handler = object.__new__(PMBCRequestHandler)
    handler.wfile = _RecordingFile()
    handler.server = SimpleNamespace(verbose=False)
    handler.request_version = "HTTP/1.1"
    handler.requestline = "GET /healthz HTTP/1.1"
    handler.command = "GET"
    handler.client_address = ("127.0.0.1", 0)
    handler.close_connection = False
    healthy = SimpleNamespace(healthy=lambda: True)
    handler._write(route_request(healthy, "GET", "/healthz", b""))
    (written,) = handler.wfile.writes
    head, body = written.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 200")
    assert b"Content-Length: %d" % len(body) in head
    assert body.strip() == b'{\n  "status": "ok"\n}'
