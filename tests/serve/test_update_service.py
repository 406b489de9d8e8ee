"""Behavioural tests for the streaming-update surface of the service.

Covers :meth:`PMBCService.update_batch` (net-effect collapse, free
no-ops, vertex growth, bounds identity after churn) and the ``POST
/update`` HTTP endpoint end to end.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.workloads import temporal_replay
from repro.core import build_index_star, pmbc_index_query
from repro.core.online import pmbc_online
from repro.corenum.bounds import compute_bounds
from repro.graph.bipartite import Side
from repro.graph.generators import paper_example_graph, random_bipartite
from repro.serve import (
    InvalidRequestError,
    PMBCClient,
    PMBCServer,
    PMBCService,
)


@pytest.fixture
def service():
    with PMBCService(paper_example_graph()) as svc:
        yield svc


def test_insert_is_visible_to_queries(service):
    before = service.graph
    missing = next(
        (u, v)
        for u in range(before.num_upper)
        for v in range(before.num_lower)
        if not before.has_edge(u, v)
    )
    result = service.update_batch([("insert", *missing)])
    assert result.applied == 1
    assert result.inserts == 1
    assert result.noops == 0
    after = service.graph
    assert after is not before
    assert after.has_edge(*missing)
    expected = pmbc_online(after, Side.UPPER, missing[0], 1, 1)
    got = service.query(Side.UPPER, missing[0], 1, 1).biclique
    assert (got.num_edges if got else None) == (
        expected.num_edges if expected else None
    )


def test_delete_is_visible_to_queries(service):
    u = 0
    v = service.graph.neighbors(Side.UPPER, u)[0]
    result = service.update_batch([("delete", u, v)])
    assert result.applied == 1
    assert result.deletes == 1
    assert not service.graph.has_edge(u, v)


def test_noop_batch_is_free(service):
    before = service.graph
    u = 0
    v = before.neighbors(Side.UPPER, u)[0]
    absent = next(
        w for w in range(before.num_lower) if not before.has_edge(u, w)
    )
    result = service.update_batch(
        [("insert", u, v), ("delete", u, absent)]
    )
    assert result.applied == 0
    assert result.noops == 2
    assert result.trees_repaired == 0
    assert result.cascade == 0
    # No graph swap: the snapshot object is untouched.
    assert service.graph is before


def test_net_effect_collapses_within_batch(service):
    before = service.graph
    u = 0
    absent = next(
        w for w in range(before.num_lower) if not before.has_edge(u, w)
    )
    result = service.update_batch(
        [("insert", u, absent), ("delete", u, absent)]
    )
    assert result.applied == 0
    assert result.noops == 2
    assert service.graph is before


def test_growth_extends_layers(service):
    before = service.graph
    u = before.num_upper + 3
    v = before.num_lower + 1
    result = service.update_batch([("insert", u, v)])
    assert result.applied == 1
    after = service.graph
    assert after.num_upper >= u + 1
    assert after.num_lower >= v + 1
    assert after.has_edge(u, v)
    got = service.query(Side.UPPER, u, 1, 1).biclique
    assert got is not None and got.num_edges >= 1


def test_bounds_match_recompute_after_churn():
    graph = random_bipartite(18, 14, 0.25, seed=3)
    rng = random.Random(11)
    with PMBCService(graph) as svc:
        for __ in range(30):
            ops = []
            for __ in range(4):
                u = rng.randrange(graph.num_upper)
                v = rng.randrange(graph.num_lower)
                ops.append((rng.choice(("insert", "delete")), u, v))
            svc.update_batch(ops)
        exact = compute_bounds(svc.graph)
        live = svc.engine.bounds
        for side in Side:
            assert live.z[side] == exact.z[side]
            assert live.prefix[side] == exact.prefix[side]
            assert live.suffix[side] == exact.suffix[side]


def test_mounted_index_stays_compact_and_exact_under_churn():
    """Rebuilt trees strand bicliques; the live index must drop them.

    Without compaction ``|A|`` grows to several times a fresh build's
    size on this stream; with it the served index stays under twice
    the fresh size, and every answer is a valid biclique of the
    current graph as large as a fresh build's (ties may differ in
    membership).
    """
    graph = random_bipartite(20, 16, 0.25, seed=7)
    events = [
        (action, u, v)
        for __, action, u, v in temporal_replay(graph, 120, seed=1)
        if action != "query"
    ]
    with PMBCService(graph, index=build_index_star(graph)) as svc:
        for at in range(0, len(events), 4):
            svc.update_batch(events[at:at + 4])
        fresh = build_index_star(svc.graph)
        assert svc.live.index.num_bicliques < 2 * fresh.num_bicliques
        for side in Side:
            for x in range(svc.graph.num_vertices_on(side)):
                for tau in (1, 2):
                    got = svc.query(side, x, tau, tau)
                    want = pmbc_index_query(fresh, side, x, tau, tau)
                    assert got.backend == "index"
                    if want is None:
                        assert got.biclique is None, (side, x, tau)
                        continue
                    assert got.biclique.num_edges == want.num_edges
                    assert got.biclique.contains(side, x)
                    assert got.biclique.is_valid_in(svc.graph)


def test_compaction_leaves_the_old_index_intact():
    """A lookup that started on the pre-compaction index finishes on it.

    Compaction publishes a copy; the object readers already hold must
    keep answering exactly like the published one.
    """
    graph = random_bipartite(20, 16, 0.25, seed=7)
    events = [
        (action, u, v)
        for __, action, u, v in temporal_replay(graph, 120, seed=1)
        if action != "query"
    ]
    compactions = 0
    with PMBCService(graph, index=build_index_star(graph)) as svc:
        for at in range(0, len(events), 4):
            old = svc.live.index
            svc.update_batch(events[at:at + 4])
            new = svc.live.index
            if new is old:
                continue
            compactions += 1
            assert new.num_bicliques < old.num_bicliques
            for side in Side:
                for x in range(svc.graph.num_vertices_on(side)):
                    assert pmbc_index_query(old, side, x) == (
                        pmbc_index_query(new, side, x)
                    ), (side, x)
    assert compactions >= 2


def test_update_metrics_counters(service):
    u = 0
    v = service.graph.neighbors(Side.UPPER, u)[0]
    service.update_batch([("delete", u, v), ("delete", u, v)])
    stats = service.stats()["updates"]
    assert stats["batches"] == 1
    assert stats["deletes"] == 1
    assert stats["noops"] == 1
    assert stats["adjacency"]["patches"] >= 1


def test_invalid_updates_rejected(service):
    with pytest.raises(InvalidRequestError):
        service.update_batch([])
    with pytest.raises(InvalidRequestError):
        service.update_batch([("upsert", 0, 1)])
    with pytest.raises(InvalidRequestError):
        service.update_batch([("insert", -1, 0)])


# ----------------------------------------------------------------------
# HTTP endpoint
# ----------------------------------------------------------------------
@pytest.fixture
def http_client():
    server = PMBCServer(PMBCService(paper_example_graph()).start(), port=0)
    server.start()
    try:
        yield PMBCClient(server.url), server
    finally:
        server.shutdown()


def test_http_update_roundtrip(http_client):
    client, server = http_client
    graph = server.service.graph
    missing = next(
        (u, v)
        for u in range(graph.num_upper)
        for v in range(graph.num_lower)
        if not graph.has_edge(u, v)
    )
    payload = client.update(
        [("insert", *missing), {"action": "delete", "u": 0, "v": 99}]
    )
    assert payload["applied"] == 1
    assert payload["noops"] == 1
    assert payload["inserts"] == 1
    assert server.service.graph.has_edge(*missing)
    answer = client.query("upper", missing[0], tau_u=1, tau_l=1)
    assert answer["result"] is not None


def test_http_update_rejects_malformed(http_client):
    client, __ = http_client
    with pytest.raises(InvalidRequestError):
        client.update([("upsert", 0, 1)])
    with pytest.raises(InvalidRequestError):
        client.update([{"action": "insert", "u": 0}])
    with pytest.raises(InvalidRequestError):
        client.update([])
