"""Query workload generation.

Section VII-B: "In each test, we randomly select 200 query vertices
from the top-500 high degree vertices with the reported results being
the average."  At our reduced graph scale the defaults shrink
proportionally (20 queries from the top 50).
"""

from __future__ import annotations

import random

from repro.graph.bipartite import BipartiteGraph, Side


def top_degree_queries(
    graph: BipartiteGraph,
    num_queries: int = 20,
    pool_size: int = 50,
    seed: int = 0,
    side: Side | None = None,
) -> list[tuple[Side, int]]:
    """A random sample of high-degree query vertices.

    Ranks vertices by degree (both layers unless ``side`` is given),
    keeps the top ``pool_size`` and samples ``num_queries`` of them
    without replacement (all of them when the pool is smaller).
    Deterministic for a given seed.
    """
    if num_queries < 1 or pool_size < 1:
        raise ValueError("num_queries and pool_size must be >= 1")
    sides = [side] if side is not None else list(Side)
    candidates: list[tuple[int, Side, int]] = []
    for s in sides:
        for v in range(graph.num_vertices_on(s)):
            degree = graph.degree(s, v)
            if degree > 0:
                candidates.append((degree, s, v))
    candidates.sort(key=lambda item: (-item[0], item[1].value, item[2]))
    pool = [(s, v) for __, s, v in candidates[:pool_size]]
    rng = random.Random(seed)
    if len(pool) <= num_queries:
        return pool
    return rng.sample(pool, num_queries)


def uniform_queries(
    graph: BipartiteGraph,
    num_queries: int = 20,
    seed: int = 0,
    side: Side | None = None,
) -> list[tuple[Side, int]]:
    """Uniformly random non-isolated query vertices.

    The workload-sensitivity study's counterpoint to the paper's
    hub-biased sampling.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    sides = [side] if side is not None else list(Side)
    population = [
        (s, v)
        for s in sides
        for v in range(graph.num_vertices_on(s))
        if graph.degree(s, v) > 0
    ]
    rng = random.Random(seed)
    if len(population) <= num_queries:
        return population
    return rng.sample(population, num_queries)


def zipf_queries(
    graph: BipartiteGraph,
    num_queries: int = 200,
    exponent: float = 1.1,
    seed: int = 0,
    side: Side | None = None,
) -> list[tuple[Side, int]]:
    """A Zipf-skewed *stream* of query vertices (with repetition).

    Models serving traffic: vertices are ranked by degree and drawn
    with probability proportional to ``1 / rank**exponent``, so a few
    hubs dominate the stream while the tail still appears.  Unlike the
    other generators this samples **with** replacement — repeats are
    the point (they exercise caches and single-flight dedup in
    :mod:`repro.serve`).  Deterministic for a given seed.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    sides = [side] if side is not None else list(Side)
    ranked = sorted(
        (
            (-graph.degree(s, v), s.value, s, v)
            for s in sides
            for v in range(graph.num_vertices_on(s))
            if graph.degree(s, v) > 0
        ),
    )
    if not ranked:
        raise ValueError("graph has no non-isolated vertices")
    population = [(s, v) for __, __, s, v in ranked]
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(population))]
    rng = random.Random(seed)
    return rng.choices(population, weights=weights, k=num_queries)


def temporal_replay(
    graph: BipartiteGraph,
    num_updates: int = 500,
    delete_fraction: float = 0.45,
    rewire_fraction: float = 0.7,
    query_every: int = 0,
    query_exponent: float = 1.1,
    seed: int = 0,
) -> list[tuple[int, str, int, int]]:
    """A timestamped edge-update stream with interleaved queries.

    Models a live graph under churn: starting from ``graph``'s edge
    set, each step deletes a random live edge (probability
    ``delete_fraction``) or inserts one — preferring to *re-insert* a
    previously deleted edge (probability ``rewire_fraction``, the
    steady-state rewire churn that keeps every degree inside its
    original envelope, so the graph neither grows nor thins out) and
    otherwise creating a fresh edge between existing vertices.  With ``query_every > 0`` a Zipf-skewed query
    event is interleaved after every that many updates.

    Returns events as uniform 4-tuples, timestamped by position:

    - ``(t, "insert", u, v)`` / ``(t, "delete", u, v)`` — an edge
      update between upper vertex ``u`` and lower vertex ``v``;
    - ``(t, "query", side, vertex)`` — a personalized query against
      the graph state at time ``t`` (``side`` is a :class:`Side`).

    Deterministic for a given seed.  ``rewire_fraction=1.0`` after a
    warm-up yields a pure steady-state segment (every insert undoes an
    earlier delete), the regime the update benchmark measures.
    """
    if num_updates < 1:
        raise ValueError("num_updates must be >= 1")
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError(f"delete_fraction must be in [0,1], got {delete_fraction}")
    if not 0.0 <= rewire_fraction <= 1.0:
        raise ValueError(f"rewire_fraction must be in [0,1], got {rewire_fraction}")
    rng = random.Random(seed)
    live_list = [
        (u, v)
        for u in range(graph.num_upper)
        for v in graph.neighbors(Side.UPPER, u)
    ]
    live = set(live_list)
    deleted: list[tuple[int, int]] = []

    def pop_live() -> tuple[int, int]:
        # O(1) uniform sample via swap-remove; live_list may hold
        # stale entries for edges re-inserted after a delete, so skip
        # anything no longer live.
        while True:
            i = rng.randrange(len(live_list))
            edge = live_list[i]
            live_list[i] = live_list[-1]
            live_list.pop()
            if edge in live:
                return edge
    queries = (
        zipf_queries(
            graph,
            num_queries=(num_updates // query_every) + 1,
            exponent=query_exponent,
            seed=seed + 1,
        )
        if query_every > 0
        else []
    )
    events: list[tuple[int, str, int, int]] = []
    next_query = iter(queries)
    for step in range(num_updates):
        if live and (not deleted or rng.random() < delete_fraction):
            edge = pop_live()
            live.discard(edge)
            deleted.append(edge)
            events.append((len(events), "delete", *edge))
        elif deleted and rng.random() < rewire_fraction:
            edge = deleted.pop(rng.randrange(len(deleted)))
            live.add(edge)
            live_list.append(edge)
            events.append((len(events), "insert", *edge))
        else:
            for __ in range(64):
                edge = (
                    rng.randrange(graph.num_upper),
                    rng.randrange(graph.num_lower),
                )
                if edge not in live:
                    break
            else:  # dense graph: fall back to rewire
                if not deleted:
                    continue
                edge = deleted.pop(rng.randrange(len(deleted)))
            live.add(edge)
            live_list.append(edge)
            if edge in deleted:
                deleted.remove(edge)
            events.append((len(events), "insert", *edge))
        if query_every > 0 and (step + 1) % query_every == 0:
            side, vertex = next(next_query)
            events.append((len(events), "query", side, vertex))
    return events


def low_degree_queries(
    graph: BipartiteGraph,
    num_queries: int = 20,
    pool_factor: int = 3,
    seed: int = 0,
    side: Side | None = None,
) -> list[tuple[Side, int]]:
    """A random sample from the lowest-degree non-isolated vertices."""
    if num_queries < 1 or pool_factor < 1:
        raise ValueError("num_queries and pool_factor must be >= 1")
    sides = [side] if side is not None else list(Side)
    candidates = sorted(
        (
            (graph.degree(s, v), s.value, s, v)
            for s in sides
            for v in range(graph.num_vertices_on(s))
            if graph.degree(s, v) > 0
        ),
    )[: num_queries * pool_factor]
    pool = [(s, v) for __, __, s, v in candidates]
    rng = random.Random(seed)
    if len(pool) <= num_queries:
        return pool
    return rng.sample(pool, num_queries)
