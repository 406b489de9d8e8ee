"""Dynamic full-graph adjacency for the streaming-update path.

:class:`DynamicPackedAdjacency` is the one mutable adjacency store
behind live edge updates (:mod:`repro.serve.live`,
:class:`repro.core.dynamic.DynamicPMBCIndex`), for every kernel:

- **Adjacency sets** per vertex, patched in O(1) per edge update.
- **Incremental snapshots**: :meth:`snapshot` re-sorts only the rows
  dirtied since the previous snapshot, so a steady-state update batch
  pays O(touched vertices), not O(E), to publish an immutable
  :class:`~repro.graph.bipartite.BipartiteGraph`.
- **Extraction**: :meth:`extract` builds a two-hop
  :class:`~repro.graph.subgraph.LocalGraph` (with the packed view
  attached) straight from the live sets, bit-for-bit identical to
  :func:`repro.kernel.packed.two_hop_packed` on a materialized
  snapshot — so post-update search-tree rebuilds skip the snapshot
  round-trip entirely.  The packed-set representation lives in that
  per-query local view; no global bit space is kept.

:meth:`canonical_bytes` serializes the id-space adjacency, equal for
any two instances holding the same graph however they got there.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Hashable

from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.subgraph import LocalGraph
from repro.kernel.packed import PackedLocalGraph, _unpack_adjacency

__all__ = ["DynamicPackedAdjacency"]


class DynamicPackedAdjacency:
    """Patchable adjacency of a whole (mutating) bipartite graph.

    Parameters
    ----------
    graph:
        Starting graph; its adjacency is copied into mutable sets.
    """

    def __init__(self, graph: BipartiteGraph) -> None:
        self._adj: dict[Side, list[set[int]]] = {
            side: [
                set(graph.neighbors(side, v))
                for v in range(graph.num_vertices_on(side))
            ]
            for side in Side
        }
        self.patch_count = 0
        #: Always 0: there is no packed bit space left to re-pack.
        self.repack_count = 0
        self._edges = sum(len(ns) for ns in self._adj[Side.UPPER])
        # Sorted-row cache for snapshot(): only rows dirtied since the
        # last snapshot are re-sorted, so steady-state snapshots cost
        # O(touched vertices), not O(E).
        self._snap_rows: dict[Side, list[tuple[int, ...]]] | None = None
        self._snap_dirty: dict[Side, set[int]] = {
            Side.UPPER: set(),
            Side.LOWER: set(),
        }

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    def num_vertices_on(self, side: Side) -> int:
        """Current vertex count on ``side``."""
        return len(self._adj[side])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` (upper id, lower id) exists."""
        return (
            u < len(self._adj[Side.UPPER]) and v in self._adj[Side.UPPER][u]
        )

    def degree(self, side: Side, x: int) -> int:
        """Current degree of vertex ``x``."""
        return len(self._adj[side][x])

    def neighbors(self, side: Side, x: int) -> set[int]:
        """Current neighbor set of ``x`` (live, do not mutate)."""
        return self._adj[side][x]

    def ensure_vertex(self, side: Side, x: int) -> None:
        """Extend ``side`` so vertex id ``x`` exists (isolated if new)."""
        rows = self._adj[side]
        while x >= len(rows):
            rows.append(set())

    def stats(self) -> dict:
        """JSON-friendly patching counters."""
        return {"patches": self.patch_count, "repacks": self.repack_count}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``; returns False for a no-op."""
        self.ensure_vertex(Side.UPPER, u)
        self.ensure_vertex(Side.LOWER, v)
        if v in self._adj[Side.UPPER][u]:
            return False
        self._adj[Side.UPPER][u].add(v)
        self._adj[Side.LOWER][v].add(u)
        self._edges += 1
        self._snap_dirty[Side.UPPER].add(u)
        self._snap_dirty[Side.LOWER].add(v)
        self.patch_count += 2
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``; returns False for a no-op."""
        if not self.has_edge(u, v):
            return False
        self._adj[Side.UPPER][u].discard(v)
        self._adj[Side.LOWER][v].discard(u)
        self._edges -= 1
        self._snap_dirty[Side.UPPER].add(u)
        self._snap_dirty[Side.LOWER].add(v)
        self.patch_count += 2
        return True

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def extract(
        self,
        graph: BipartiteGraph | None,
        side: Side,
        q: int,
        kernel: str = "bitset",
    ) -> LocalGraph:
        """Two-hop ``H_q`` with the packed view attached, from live rows.

        Signature-compatible with
        :func:`repro.core.online.extract_local` (the ``graph`` argument
        is ignored — the live adjacency is authoritative), and
        bit-identical to ``two_hop_packed(snapshot(), side, q)``.
        """
        adj = self._adj
        other = side.other
        lower_globals = sorted(adj[side][q])
        nbrs = [adj[other][v] for v in lower_globals]
        counts: dict[int, int] = {q: 0}
        get = counts.get
        for ns in nbrs:
            for u in ns:
                counts[u] = get(u, 0) + 1
        counts[q] = len(lower_globals)
        upper_globals = sorted(counts)
        num_upper = len(upper_globals)
        num_lower = len(lower_globals)
        upper_degrees = [counts[u] for u in upper_globals]
        lower_degrees = [len(ns) for ns in nbrs]
        upper_order = sorted(
            range(num_upper), key=upper_degrees.__getitem__, reverse=True
        )
        lower_order = sorted(
            range(num_lower), key=lower_degrees.__getitem__, reverse=True
        )
        upper_rank = [0] * num_upper
        for bit, u in enumerate(upper_order):
            upper_rank[u] = bit
        lower_rank = [0] * num_lower
        for bit, v in enumerate(lower_order):
            lower_rank[v] = bit
        gbit = {upper_globals[u]: bit for bit, u in enumerate(upper_order)}
        adj_upper = [0] * num_upper
        adj_lower = [0] * num_lower
        for vi, ns in enumerate(nbrs):
            vsel = 1 << lower_rank[vi]
            row = 0
            for u in ns:
                ubit = gbit[u]
                row |= 1 << ubit
                adj_upper[ubit] |= vsel
            adj_lower[lower_rank[vi]] = row

        local = LocalGraph(
            upper_globals=upper_globals,
            lower_globals=lower_globals,
            upper_side=side,
            q_local=bisect_left(upper_globals, q),
            adj_builder=lambda: _unpack_adjacency(local),
        )
        local._packed = PackedLocalGraph(
            local=local,
            upper_order=upper_order,
            lower_order=lower_order,
            upper_rank=upper_rank,
            lower_rank=lower_rank,
            adj_upper=adj_upper,
            adj_lower=adj_lower,
            deg_upper=[upper_degrees[u] for u in upper_order],
            deg_lower=[lower_degrees[v] for v in lower_order],
            all_upper=(1 << num_upper) - 1,
            all_lower=(1 << num_lower) - 1,
        )
        return local

    def snapshot(
        self,
        labels: dict[Side, tuple[Hashable, ...] | None] | None = None,
        label_ids: dict[Side, dict[Hashable, int] | None] | None = None,
    ) -> BipartiteGraph:
        """An immutable :class:`BipartiteGraph` of the current state.

        Incremental: sorted rows are cached between calls and only the
        vertices touched since the previous snapshot are re-sorted, so
        a steady-state update batch pays O(affected · deg), not O(E).
        ``labels``/``label_ids`` (one entry per side, covering every
        current vertex) are attached as the snapshot's labels and its
        label→id map, so a caller can carry them across snapshots.
        """
        if self._snap_rows is None:
            self._snap_rows = {
                side: [tuple(sorted(ns)) for ns in self._adj[side]]
                for side in Side
            }
        else:
            for side in Side:
                rows = self._snap_rows[side]
                adj = self._adj[side]
                while len(rows) < len(adj):
                    rows.append(())
                for x in self._snap_dirty[side]:
                    rows[x] = tuple(sorted(adj[x]))
        self._snap_dirty[Side.UPPER].clear()
        self._snap_dirty[Side.LOWER].clear()
        return BipartiteGraph._from_sorted_rows(
            tuple(self._snap_rows[Side.UPPER]),
            tuple(self._snap_rows[Side.LOWER]),
            self._edges,
            labels=labels,
            label_ids=label_ids,
        )

    # ------------------------------------------------------------------
    # Serialization (differential-test surface)
    # ------------------------------------------------------------------
    def canonical_bytes(self) -> bytes:
        """Id-space serialization of the adjacency.

        Equal across any two instances holding the same graph, no
        matter how they got there (patched vs rebuilt).
        """
        out = bytearray()
        out += len(self._adj[Side.UPPER]).to_bytes(8, "big")
        out += len(self._adj[Side.LOWER]).to_bytes(8, "big")
        for ns in self._adj[Side.UPPER]:
            out += len(ns).to_bytes(4, "big")
            for v in sorted(ns):
                out += v.to_bytes(4, "big")
        return bytes(out)

