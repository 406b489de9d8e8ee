"""Dynamic maintenance of the PMBC-Index (the paper's future work).

Section VIII closes with: "solutions for solving this problem under a
dynamic environment is an interesting research direction for future
studies."  This module implements the natural affected-set maintenance
scheme on top of the static constructors:

- An edge ``(u, v)`` only influences the answer of a query vertex ``x``
  when the edge lies inside ``x``'s two-hop subgraph *and* can
  participate in an ``x``-containing biclique — which requires ``x`` to
  be adjacent to the endpoint on the opposite layer.  Hence the
  **affected set** of an update is ``N(v) ∪ {u}`` on the upper layer
  and ``N(u) ∪ {v}`` on the lower layer (neighborhoods taken *after*
  an insertion and *before* a deletion), and only those vertices'
  search trees need rebuilding.
- The (α,β)-core bounds are global pruning structures; they are
  maintained **incrementally** by
  :class:`~repro.corenum.incremental.IncrementalCoreBounds` — a bounded
  peeling cascade per update instead of a from-scratch ``O(δ·m)``
  recomputation — and stay *exact* at every point.
- The adjacency lives in one
  :class:`~repro.kernel.DynamicPackedAdjacency` for every kernel; on
  the bitset kernel affected trees are rebuilt by fused extraction from
  its live sets — no ``O(m)`` graph snapshot per update batch.
- Rebuilt trees can strand biclique instances in the array ``A``;
  they become unreachable (every tree referencing a broken biclique is
  in the affected set) and :meth:`DynamicPMBCIndex.compact` garbage
  collects them via :func:`~repro.core.index.compact_index`.

Rebuilding a tree costs the same as during construction —
``O(deg(x) · TC(PMBC-OL*))`` — so an update touches
``O(deg(u) + deg(v))`` trees instead of all ``n``.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable

from repro.core.construction import build_search_tree
from repro.core.index import (
    BicliqueArray,
    PMBCIndex,
    SearchTree,
    compact_index,
)
from repro.core.query import pmbc_index_query
from repro.core.result import Biclique
from repro.corenum.bounds import CoreBounds
from repro.corenum.incremental import (
    DEFAULT_CASCADE_CAP,
    IncrementalCoreBounds,
)
from repro.graph.bipartite import BipartiteGraph, Side
from repro.kernel import is_packed_kernel, resolve_kernel
from repro.kernel.dynadj import DynamicPackedAdjacency


def edge_affected_sets(
    neighbors_of_u: Iterable[int],
    neighbors_of_v: Iterable[int],
    u: int,
    v: int,
) -> tuple[set[int], set[int]]:
    """The per-layer vertex sets an update to edge ``(u, v)`` affects.

    ``neighbors_of_u`` are the lower-layer neighbors of upper vertex
    ``u`` and ``neighbors_of_v`` the upper-layer neighbors of lower
    vertex ``v`` — taken *after* an insertion and *before* a deletion.
    Returns ``(affected_upper, affected_lower)``: exactly the vertices
    whose search trees the update can change (module docstring).  This
    is the invalidation rule shared by :class:`DynamicPMBCIndex`
    (rebuild) and :class:`repro.adaptive.PartialIndex` (evict).
    """
    return set(neighbors_of_v) | {u}, set(neighbors_of_u) | {v}


def rebuild_trees(
    trees: dict[Side, list[SearchTree]],
    array: BicliqueArray,
    affected: Collection[tuple[Side, int]],
    adjacency: DynamicPackedAdjacency,
    snapshot: Callable[[], BipartiteGraph],
    bounds: CoreBounds | None,
    kernel: str,
) -> int:
    """Rebuild the search tree of every affected ``(side, vertex)`` in place.

    New bicliques go into the shared ``array``.  The bitset kernel
    extracts straight from the live ``adjacency``; the set kernel
    builds from the materialized ``snapshot()``.  Returns the number
    of trees rebuilt.  This is the repair loop both
    :class:`DynamicPMBCIndex` and :class:`repro.serve.live.LiveGraph`
    run; each keeps its own growth and compaction.
    """
    if is_packed_kernel(kernel):
        source, extractor = adjacency, adjacency.extract
    else:
        source, extractor = snapshot(), None
    for side, x in affected:
        trees[side][x] = build_search_tree(
            source,
            side,
            x,
            array,
            bounds,
            kernel=kernel,
            extractor=extractor,
        )
    return len(affected)


class DynamicPMBCIndex:
    """A PMBC-Index that stays correct under edge insertions/deletions.

    Parameters
    ----------
    graph:
        The starting graph.
    use_core_bounds:
        Maintain (α,β)-core bounds (PMBC-OL* pruning) incrementally.
    kernel:
        Compute kernel for tree rebuilds; the bitset kernel extracts
        straight from the live :class:`DynamicPackedAdjacency`, so
        rebuilds skip graph snapshots.
    cascade_cap:
        Tuning knob forwarded to the incremental bounds.
    bounds:
        Optional existing :class:`CoreBounds` of ``graph`` to adopt —
        it is then repaired in place, so external holders (engines,
        shards) observe updates without a reference swap.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        use_core_bounds: bool = True,
        kernel: str | None = None,
        cascade_cap: int = DEFAULT_CASCADE_CAP,
        bounds: CoreBounds | None = None,
    ) -> None:
        self._adj = DynamicPackedAdjacency(graph)
        self._use_core_bounds = use_core_bounds
        self._kernel = resolve_kernel(kernel)
        self._inc = (
            IncrementalCoreBounds(graph, bounds=bounds, cascade_cap=cascade_cap)
            if use_core_bounds
            else None
        )
        self._snapshot: BipartiteGraph | None = None
        self._array = BicliqueArray()
        self._trees: dict[Side, list[SearchTree]] = {}
        self.trees_rebuilt = 0
        self.noop_updates = 0
        self._rebuild_all()

    # ------------------------------------------------------------------
    # Graph state
    # ------------------------------------------------------------------
    def graph(self) -> BipartiteGraph:
        """An immutable snapshot of the current graph."""
        if self._snapshot is None:
            self._snapshot = self._adj.snapshot()
        return self._snapshot

    def num_vertices_on(self, side: Side) -> int:
        """Current vertex count on ``side`` (including isolated)."""
        return self._adj.num_vertices_on(side)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` (upper id, lower id) currently exists."""
        return self._adj.has_edge(u, v)

    @property
    def index(self) -> PMBCIndex:
        """The current index as a plain (static) PMBCIndex view."""
        return PMBCIndex(
            num_upper=self._adj.num_vertices_on(Side.UPPER),
            num_lower=self._adj.num_vertices_on(Side.LOWER),
            trees=self._trees,
            array=self._array,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self, side: Side, q: int, tau_u: int = 1, tau_l: int = 1
    ) -> Biclique | None:
        """PMBC-IQ against the maintained index."""
        return pmbc_index_query(self.index, side, q, tau_u, tau_l)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> int:
        """Insert edge ``(u, v)``; new vertex ids extend the layers.

        Returns the number of search trees rebuilt.  Inserting an
        existing edge is a free, counted no-op (returns 0).
        """
        if u < 0 or v < 0:
            raise ValueError(f"vertex ids must be non-negative: ({u}, {v})")
        return self.apply_updates([("insert", u, v)])

    def delete_edge(self, u: int, v: int) -> int:
        """Delete edge ``(u, v)``.

        Returns the number of search trees rebuilt.  Deleting a
        missing edge is a free, counted no-op (returns 0).
        """
        return self.apply_updates([("delete", u, v)])

    def apply_updates(
        self, updates: list[tuple[str, int, int]]
    ) -> int:
        """Apply a batch of ``("insert"|"delete", u, v)`` updates.

        All graph mutations happen first, then the union of affected
        trees is rebuilt once — cheaper than per-edge maintenance when
        updates cluster around the same vertices.  Returns the number
        of trees rebuilt.  No-op updates (deleting a missing edge,
        inserting an existing one) are skipped for free and counted in
        :attr:`noop_updates` — they trigger no bounds work and no
        rebuilds; a batch of only no-ops leaves the index untouched.
        Core bounds are repaired incrementally per effective update,
        never recomputed from scratch.
        """
        affected_upper: set[int] = set()
        affected_lower: set[int] = set()
        for action, u, v in updates:
            if action == "insert":
                self._grow(Side.UPPER, u)
                self._grow(Side.LOWER, v)
                if self._adj.has_edge(u, v):
                    self.noop_updates += 1
                    continue
                self._adj.insert_edge(u, v)
                if self._inc is not None:
                    self._inc.insert_edge(u, v)
                affected_upper |= self._adj.neighbors(Side.LOWER, v)
                affected_lower |= self._adj.neighbors(Side.UPPER, u)
            elif action == "delete":
                if not self.has_edge(u, v):
                    self.noop_updates += 1
                    continue
                affected_upper |= self._adj.neighbors(Side.LOWER, v)
                affected_lower |= self._adj.neighbors(Side.UPPER, u)
                self._adj.delete_edge(u, v)
                if self._inc is not None:
                    self._inc.delete_edge(u, v)
            else:
                raise ValueError(f"unknown update action {action!r}")
            affected_upper.add(u)
            affected_lower.add(v)
        if not affected_upper and not affected_lower:
            return 0  # pure no-op batch: nothing moved, nothing to do
        self._snapshot = None
        return self._rebuild(affected_upper, affected_lower)

    def delete_vertex(self, side: Side, v: int) -> int:
        """Remove all incident edges of ``v`` (the vertex id remains,
        with an empty tree).  Returns the number of trees rebuilt."""
        if not 0 <= v < self._adj.num_vertices_on(side):
            raise ValueError(
                f"vertex {v} out of range for the {side.value} layer"
            )
        neighbors = sorted(self._adj.neighbors(side, v))
        if not neighbors:
            return 0
        if side is Side.UPPER:
            updates = [("delete", v, w) for w in neighbors]
        else:
            updates = [("delete", w, v) for w in neighbors]
        return self.apply_updates(updates)

    def insert_vertex(
        self, side: Side, neighbors: list[int]
    ) -> tuple[int, int]:
        """Add a fresh vertex on ``side`` connected to ``neighbors``.

        Returns ``(new_vertex_id, trees_rebuilt)``.
        """
        new_id = self._adj.num_vertices_on(side)
        if not neighbors:
            self._grow(side, new_id)
            return new_id, 0
        if side is Side.UPPER:
            updates = [("insert", new_id, w) for w in sorted(set(neighbors))]
        else:
            updates = [("insert", w, new_id) for w in sorted(set(neighbors))]
        rebuilt = self.apply_updates(updates)
        return new_id, rebuilt

    def compact(self) -> int:
        """Garbage-collect unreferenced bicliques; returns the number
        removed."""
        compacted, removed = compact_index(self.index)
        self._trees, self._array = compacted.trees, compacted.array
        return removed

    def stats(self) -> dict:
        """JSON-friendly maintenance counters (nested per component)."""
        out = {
            "trees_rebuilt": self.trees_rebuilt,
            "noop_updates": self.noop_updates,
            "kernel": self._kernel,
        }
        if self._inc is not None:
            out["bounds"] = self._inc.stats()
        out["adjacency"] = self._adj.stats()
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _grow(self, side: Side, v: int) -> None:
        if v < self._adj.num_vertices_on(side):
            return
        if self._inc is not None:
            self._inc.ensure_vertex(side, v)
        self._adj.ensure_vertex(side, v)
        trees = self._trees[side]
        while v >= len(trees):
            trees.append(SearchTree())
        self._snapshot = None

    def _current_bounds(self) -> CoreBounds | None:
        if self._inc is None:
            return None
        return self._inc.bounds

    def _rebuild(
        self, affected_upper: set[int], affected_lower: set[int]
    ) -> int:
        affected = [(Side.UPPER, x) for x in affected_upper]
        affected += [(Side.LOWER, x) for x in affected_lower]
        count = rebuild_trees(
            self._trees,
            self._array,
            affected,
            self._adj,
            self.graph,
            self._current_bounds(),
            self._kernel,
        )
        self.trees_rebuilt += count
        return count

    def _rebuild_all(self) -> None:
        graph = self.graph()
        bounds = self._current_bounds()
        self._trees = {
            side: [
                build_search_tree(
                    graph, side, q, self._array, bounds, kernel=self._kernel
                )
                for q in range(graph.num_vertices_on(side))
            ]
            for side in Side
        }
