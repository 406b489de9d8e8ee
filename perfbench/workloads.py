"""Seeded inputs for the workloads.

Each workload draws a synthetic bipartite graph (capped power-law
degrees plus planted bicliques, the recipe of the dataset zoo) and a
request stream from ``--seed``.  The graph is written as a plain edge
list and read back with the program's own reader, so every vertex id in
the streams is the id the server assigns when it loads the same file.
Vertex labels in the file differ from those ids, as in real data, so an
answer that names a vertex by its internal id shows as wrong.  The
server is given the files only; the streams stay here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro.bench.workloads import temporal_replay, zipf_queries
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.generators import capped_power_law_bipartite, with_planted_blocks
from repro.graph.io import read_edge_list

#: (tau_u, tau_l) floors mixed into single-query streams.
TAU_MIX = ((1, 1), (2, 2), (2, 3), (3, 2), (1, 3), (3, 1))
#: The floor grid every vertex of a sweep batch is asked under.
SWEEP_TAUS = ((1, 1), (2, 2), (3, 3), (2, 4), (4, 2), (4, 4))
#: Vertices per sweep batch (each asked under every SWEEP_TAUS floor).
SWEEP_VERTICES = 4
#: Edge updates per ``POST /update`` (the freshness bound of BENCH_update).
UPDATE_BATCH = 4
ZIPF_EXPONENT = 1.1
#: Shapes of the planted bicliques, the same for every seed (the seed
#: places them).  The largest planted block sets how deep (α,β)-core
#: peeling goes, and with it the cost of a search or an update repair;
#: sizes drawn per seed made the update rate differ by up to 40%
#: between seeds.
PLANTED = ((8, 6), (6, 8), (7, 4), (4, 7), (5, 5), (3, 6), (6, 3), (8, 3), (3, 8), (5, 7))


@dataclass(frozen=True)
class GraphShape:
    num_upper: int
    num_lower: int
    num_edges: int
    planted: int
    #: Hub degree cap as a fraction of the opposite layer.
    hub_fraction: float = 0.08


SHAPES = {
    "zipf_indexed": GraphShape(1500, 860, 3000, 7),
    # Low hub caps: the sweep covers a random part of the vertex set in a
    # run, so one huge hub (a multi-second search) would decide the
    # result by whether it was reached.
    "sweep_batch": GraphShape(10000, 6600, 34000, 10, hub_fraction=0.02),
    "churn_mixed": GraphShape(1000, 570, 2000, 6),
    "churn_updates": GraphShape(1000, 570, 2000, 6),
}


def make_graph(shape: GraphShape, seed: int) -> BipartiteGraph:
    """A capped power-law bipartite graph with planted bicliques."""
    graph = capped_power_law_bipartite(
        shape.num_upper,
        shape.num_lower,
        shape.num_edges,
        exponent_upper=2.1,
        exponent_lower=1.7,
        cap_upper=max(6, round(shape.hub_fraction * shape.num_lower)),
        cap_lower=max(6, round(shape.hub_fraction * shape.num_upper)),
        seed=seed,
    )
    return with_planted_blocks(graph, PLANTED[:shape.planted], seed=seed + 1)


def write_graph(workload: str, seed: int, work: Path) -> tuple[Path, BipartiteGraph]:
    """Write the workload's edge file; return it and the graph as served.

    Vertices are labelled ``u<n>``/``l<n>`` by their generator id and
    the lines are shuffled; the reader numbers vertices in order of first
    appearance, so labels and ids differ.
    """
    lines = [f"u{u} l{v}\n" for u, v in make_graph(SHAPES[workload], seed).edges()]
    random.Random(seed * 53 + 11).shuffle(lines)
    path = work / f"{workload}-{seed}.edges"
    path.write_text("".join(lines))
    return path, read_edge_list(path)


def zipf_stream(graph: BipartiteGraph, count: int, seed: int) -> list[tuple]:
    """Zipf-skewed single queries ``(side, vertex, tau_u, tau_l)``."""
    rng = random.Random(seed * 31 + 7)
    picks = zipf_queries(graph, num_queries=count, exponent=ZIPF_EXPONENT, seed=seed)
    return [(side.value, v, *rng.choice(TAU_MIX)) for side, v in picks]


def sweep_batches(graph: BipartiteGraph, seed: int) -> list[list[tuple]]:
    """Uniformly ordered, never-repeating vertices, batched with a floor grid."""
    vertices = [
        (side.value, v)
        for side in Side
        for v in range(graph.num_vertices_on(side))
        if graph.degree(side, v) > 0
    ]
    random.Random(seed * 131 + 3).shuffle(vertices)
    return [
        [(side, v, tu, tl) for side, v in vertices[i:i + SWEEP_VERTICES] for tu, tl in SWEEP_TAUS]
        for i in range(0, len(vertices) - SWEEP_VERTICES + 1, SWEEP_VERTICES)
    ]


def update_batches(graph: BipartiteGraph, count: int, seed: int) -> list[list[tuple]]:
    """A ``temporal_replay`` edge stream cut into ``UPDATE_BATCH`` batches.

    It is the steady-state replay of BENCH_update.json: every insert
    restores an edge deleted earlier, so the graph stays inside its
    original envelope and the cost of an update does not drift with the
    number of updates a run gets through.  With fresh inserts the graph
    grew all run long and the update rate fell by about half within
    12 s.
    """
    events = temporal_replay(
        graph,
        num_updates=count * UPDATE_BATCH,
        delete_fraction=0.45,
        rewire_fraction=1.0,
        seed=seed,
    )
    ops = [(action, u, v) for __, action, u, v in events if action != "query"]
    return [ops[i:i + UPDATE_BATCH] for i in range(0, len(ops) - UPDATE_BATCH + 1, UPDATE_BATCH)]
