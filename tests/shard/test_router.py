"""Routing, scatter/gather, and degradation tests for the shard router."""

from __future__ import annotations

import threading

import pytest

from repro.core.query import QueryRequest
from repro.graph.bipartite import Side
from repro.serve import (
    PMBCService,
    QueueFullError,
    ServiceClosedError,
    ServiceConfig,
)
from repro.shard import ShardedService

CONFIG = ServiceConfig(num_workers=2, max_queue=64)


@pytest.fixture()
def sharded(medium_planted_graph):
    service = ShardedService(medium_planted_graph, 3, config=CONFIG)
    service.start()
    try:
        yield medium_planted_graph, service
    finally:
        service.close()


def mixed_batch(graph, shard_map) -> list[QueryRequest]:
    """Duplicates, both sides, and every shard's boundary vertices."""
    requests = [
        QueryRequest(Side.UPPER, 0, 2, 2),
        QueryRequest(Side.UPPER, 0, 2, 2),  # exact duplicate
        QueryRequest(Side.LOWER, 3, 1, 2),
        QueryRequest(Side.UPPER, graph.num_upper - 1, 1, 1),
        QueryRequest(Side.LOWER, graph.num_lower - 1, 1, 1),
    ]
    num_upper = shard_map.num_upper
    for start, stop in shard_map.spans():
        for gid in {start, max(start, stop - 1)}:
            if gid >= shard_map.total_vertices:
                continue
            if gid < num_upper:
                requests.append(QueryRequest(Side.UPPER, gid, 1, 1))
            else:
                requests.append(
                    QueryRequest(Side.LOWER, gid - num_upper, 1, 1)
                )
    return requests


def test_query_routes_to_owning_shard(sharded):
    graph, service = sharded
    for side, vertex in [
        (Side.UPPER, 0),
        (Side.UPPER, graph.num_upper - 1),
        (Side.LOWER, 0),
        (Side.LOWER, graph.num_lower - 1),
    ]:
        result = service.query(side, vertex, 2, 2)
        assert result.shard == service.shard_map.shard_of(side, vertex)
        assert result.degraded is False


def test_batch_matches_single_process_service(sharded):
    """Differential: scatter/gather answers == one unsharded service."""
    graph, service = sharded
    requests = mixed_batch(graph, service.shard_map)
    merged = service.query_batch(requests)
    with PMBCService(graph, config=CONFIG) as reference:
        expected = reference.query_batch(requests)
    assert len(merged.bicliques) == len(requests)
    for got, want in zip(merged.bicliques, expected.bicliques):
        got_edges = None if got is None else (got.upper, got.lower)
        want_edges = None if want is None else (want.upper, want.lower)
        assert got_edges == want_edges
    assert merged.degraded is False
    # The batch crossed shards, so no single shard label applies.
    assert merged.shard is None


def test_batch_on_one_shard_keeps_its_label(sharded):
    graph, service = sharded
    requests = [
        QueryRequest(Side.UPPER, 0, 1, 1),
        QueryRequest(Side.UPPER, 1, 1, 1),
    ]
    owner = service.shard_map.shard_of(Side.UPPER, 0)
    assert owner == service.shard_map.shard_of(Side.UPPER, 1)
    merged = service.query_batch(requests)
    assert merged.shard == owner


def test_explain_batch_stitches_shard_traces(sharded):
    graph, service = sharded
    requests = mixed_batch(graph, service.shard_map)
    merged = service.query_batch(requests, explain=True)
    trace = merged.trace
    assert trace is not None
    assert trace["meta"]["kind"] == "sharded_batch"
    stitched_from = trace["meta"]["stitched_from"]
    assert len(stitched_from) == len(trace["meta"]["shards"]) >= 2


def test_one_shard_down_degrades_instead_of_failing(sharded):
    graph, service = sharded
    down = service.shard_map.shard_of(Side.UPPER, 0)
    service.shards[down].service.close()

    result = service.query(Side.UPPER, 0, 2, 2)
    assert result.degraded is True
    assert result.shard != down
    # An unaffected vertex still routes normally.
    other_side, other_vertex = next(
        pair
        for shard in range(3)
        if shard != down
        for pair in service.shard_map.owned(shard)
    )
    clean = service.query(other_side, other_vertex, 1, 1)
    assert clean.degraded is False

    merged = service.query_batch(mixed_batch(graph, service.shard_map))
    assert merged.degraded is True

    stats = service.stats()
    assert stats["sharding"]["healthy"].count(True) == 2
    assert stats["sharding"]["degraded"] > 0
    assert service.healthy()


def test_all_shards_down_raises_closed(sharded):
    __, service = sharded
    for worker in service.shards:
        worker.service.close()
    assert not service.healthy()
    with pytest.raises(ServiceClosedError):
        service.query(Side.UPPER, 0, 1, 1)
    with pytest.raises(ServiceClosedError):
        service.query_batch([QueryRequest(Side.UPPER, 0, 1, 1)])


def test_more_shards_than_vertices_still_answers(paper_graph):
    total = paper_graph.num_upper + paper_graph.num_lower
    with ShardedService(
        paper_graph, total + 3, config=ServiceConfig(num_workers=1)
    ) as service:
        spans = service.shard_map.spans()
        assert any(start == stop for start, stop in spans)
        result = service.query(Side.UPPER, 0, 1, 1)
        assert result.biclique is not None
        assert result.shard == service.shard_map.shard_of(Side.UPPER, 0)


def test_queue_full_raises_queue_full(medium_planted_graph):
    tiny = ServiceConfig(num_workers=1, max_queue=1)
    with ShardedService(medium_planted_graph, 2, config=tiny) as service:
        with pytest.raises(QueueFullError):
            for __ in range(64):
                service.admit(Side.UPPER, 0, 6, 6)


def test_metrics_and_stats_expose_shard_series(sharded):
    graph, service = sharded
    service.query(Side.UPPER, 0, 1, 1)
    service.query_batch(mixed_batch(graph, service.shard_map))
    text = service.metrics.render()
    assert "pmbc_shard_requests_total" in text
    assert "pmbc_shards_up 3" in text
    assert "pmbc_shard_batch_splits" in text
    stats = service.stats()
    assert stats["sharding"]["num_shards"] == 3
    assert stats["sharding"]["batches"] == 1
    assert sum(stats["sharding"]["requests"].values()) >= 1
    assert len(stats["per_shard"]) == 3


def test_close_leaves_no_threads(medium_planted_graph):
    service = ShardedService(medium_planted_graph, 2, config=CONFIG)
    service.start()
    service.query(Side.UPPER, 0, 1, 1)
    service.close()
    assert service.closed
    leaked = [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("pmbc-")
    ]
    assert not leaked, f"leaked threads: {leaked}"
