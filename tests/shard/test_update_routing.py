"""Streaming updates across a sharded deployment.

Routing (owner shard per upper endpoint, cross-shard accounting,
growth ids falling back to shard 0), the one-true-state invariant
(every shard serves from one shared LiveGraph),
and answer correctness after churn on every shard.
"""

from __future__ import annotations

import pytest

from repro.core.online import pmbc_online
from repro.corenum.bounds import compute_bounds
from repro.graph.bipartite import Side
from repro.graph.generators import power_law_bipartite
from repro.shard import ShardedService

SHARDS = 2


@pytest.fixture
def sharded():
    graph = power_law_bipartite(30, 24, 120, 1.5, seed=7)
    service = ShardedService(graph, SHARDS).start()
    try:
        yield service
    finally:
        service.close()


def _edge_owned_by(service, shard_id, present):
    graph = service.graph
    for u in range(graph.num_upper):
        if service.shard_map.shard_of(Side.UPPER, u) != shard_id:
            continue
        for v in range(graph.num_lower):
            if graph.has_edge(u, v) == present:
                return u, v
    raise AssertionError(f"no suitable edge for shard {shard_id}")


def test_updates_route_to_owner_and_propagate(sharded):
    ops = []
    for shard_id in range(SHARDS):
        ops.append(("insert", *_edge_owned_by(sharded, shard_id, False)))
    result = sharded.update_batch(ops)
    assert result.applied == len(ops)
    # Multi-shard batch: no single applying shard.
    assert result.shard is None
    stats = sharded.stats()["sharding"]["updates"]
    assert stats["batches"] == 1
    assert sum(stats["applied"].values()) == len(ops)
    # Every shard answers from the new snapshot.
    graph = sharded.graph
    for action, u, v in ops:
        assert graph.has_edge(u, v)
        expected = pmbc_online(graph, Side.UPPER, u, 1, 1)
        got = sharded.query(Side.UPPER, u, 1, 1).biclique
        assert (got.num_edges if got else None) == (
            expected.num_edges if expected else None
        )


def test_single_shard_batch_reports_shard(sharded):
    u, v = _edge_owned_by(sharded, 1, False)
    result = sharded.update_batch([("insert", u, v)])
    assert result.applied == 1
    assert result.shard == 1


def test_cross_shard_edges_counted(sharded):
    graph = sharded.graph
    cross = next(
        (u, v)
        for u in range(graph.num_upper)
        for v in range(graph.num_lower)
        if not graph.has_edge(u, v)
        and sharded.shard_map.shard_of(Side.UPPER, u)
        != sharded.shard_map.shard_of(Side.LOWER, v)
    )
    sharded.update_batch([("insert", *cross)])
    stats = sharded.stats()["sharding"]["updates"]
    assert stats["cross_shard_edges"] == 1
    assert sharded.graph.has_edge(*cross)


def test_update_state_is_shared_across_shards(sharded):
    u, v = _edge_owned_by(sharded, 0, False)
    sharded.update_batch([("insert", u, v)])
    services = [w.service for w in sharded.shards]
    assert all(s.live is sharded.live for s in services)
    # One LiveGraph applied the batch once: every shard reports the
    # same shared update state.
    per_shard = [s.stats()["updates"] for s in services]
    for updates in per_shard:
        assert updates["batches"] == 1
        assert updates["inserts"] == 1
        assert updates["adjacency"] == per_shard[0]["adjacency"]
        assert updates["bounds"] == per_shard[0]["bounds"]
    # The shared maintainer observed the update: its bounds equal a
    # recompute of the merged snapshot.
    exact = compute_bounds(sharded.graph)
    live = sharded.live.bounds
    for side in Side:
        assert live.z[side] == exact.z[side]


def test_growth_ids_fall_back_to_shard_zero(sharded):
    graph = sharded.graph
    u = graph.num_upper + 2
    result = sharded.update_batch([("insert", u, 0)])
    assert result.applied == 1
    assert result.shard == 0
    assert sharded.graph.has_edge(u, 0)


def test_churn_keeps_all_shards_consistent(sharded):
    import random

    rng = random.Random(3)
    graph = sharded.graph
    for __ in range(12):
        ops = []
        for __ in range(4):
            u = rng.randrange(graph.num_upper)
            v = rng.randrange(graph.num_lower)
            ops.append((rng.choice(("insert", "delete")), u, v))
        sharded.update_batch(ops)
    final = sharded.graph
    exact = compute_bounds(final)
    for worker in sharded.shards:
        assert worker.service.graph is final
    for side in (Side.UPPER, Side.LOWER):
        n = final.num_vertices_on(side)
        for q in range(0, n, max(1, n // 6)):
            expected = pmbc_online(final, side, q, 2, 2, bounds=exact)
            got = sharded.query(side, q, 2, 2).biclique
            assert (got.num_edges if got else None) == (
                expected.num_edges if expected else None
            )


def test_concurrent_updates_through_every_shard_stay_consistent(sharded):
    """Updates racing through the router and both shards' services, with
    queries in flight, lose nothing: one LiveGraph serializes them."""
    import random
    import sys
    import threading

    from repro.kernel.dynadj import DynamicPackedAdjacency

    graph = sharded.graph
    entry_points = [sharded] + [w.service for w in sharded.shards]
    batches_per_thread = 15
    errors: list[BaseException] = []

    def churn(seed: int) -> None:
        rng = random.Random(seed)
        target = entry_points[seed % len(entry_points)]
        try:
            for __ in range(batches_per_thread):
                ops = [
                    (
                        rng.choice(("insert", "delete")),
                        rng.randrange(graph.num_upper),
                        rng.randrange(graph.num_lower),
                    )
                    for __ in range(3)
                ]
                target.update_batch(ops)
                sharded.query(Side.UPPER, rng.randrange(graph.num_upper), 2, 2)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=churn, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors

    final = sharded.graph
    assert all(w.service.graph is final for w in sharded.shards)
    for worker in sharded.shards:
        assert worker.service.stats()["updates"]["batches"] == 6 * (
            batches_per_thread
        )
    assert (
        sharded.live.adjacency.canonical_bytes()
        == DynamicPackedAdjacency(final).canonical_bytes()
    )
    exact = compute_bounds(final)
    for side in Side:
        assert sharded.live.bounds.z[side] == exact.z[side]
