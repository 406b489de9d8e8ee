"""The core bipartite graph data structure.

The graph is immutable once built.  Vertices live in two disjoint layers
(:attr:`Side.UPPER` and :attr:`Side.LOWER`) and are identified inside a
layer by contiguous integer ids ``0 .. n_side - 1``.  Optional labels map
those ids back to application-level identifiers (user names, product
ids, ...).

Adjacency is stored as sorted tuples of neighbor ids per vertex, with
lazily built ``set`` views for the intersection-heavy branch-and-bound
code.  This keeps construction cheap and lookups O(1) amortized.
"""

from __future__ import annotations

import enum
from typing import Hashable, Iterable, Iterator, NamedTuple, Sequence


class Side(enum.Enum):
    """Layer designator for bipartite vertices."""

    UPPER = "upper"
    LOWER = "lower"

    #: The opposite layer (assigned below; members are singletons, so a
    #: plain attribute beats a property in the hot repair loops).
    other: "Side"

    # Members are singletons — the identity hash agrees with enum
    # equality and avoids a Python-level __hash__ call on every
    # (side, vertex) dict/set operation in the incremental repair path.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Side.{self.name}"


Side.UPPER.other = Side.LOWER
Side.LOWER.other = Side.UPPER


class Vertex(NamedTuple):
    """A vertex handle: which layer it is in plus its id in that layer."""

    side: Side
    id: int


class BipartiteGraph:
    """An undirected, unweighted bipartite graph ``G(V=(U,L), E)``.

    Parameters
    ----------
    adj_upper:
        ``adj_upper[u]`` is an iterable of lower-layer neighbor ids of
        upper vertex ``u``.  Neighbor lists may be unsorted and contain
        duplicates; they are normalized during construction.
    upper_labels / lower_labels:
        Optional application-level labels, one per vertex.

    Use :func:`repro.graph.builders.from_edges` for the common
    edge-list construction path.
    """

    __slots__ = (
        "_adj",
        "_adj_sets",
        "_num_edges",
        "_labels",
        "_label_to_id",
    )

    def __init__(
        self,
        adj_upper: Sequence[Iterable[int]],
        num_lower: int | None = None,
        upper_labels: Sequence[Hashable] | None = None,
        lower_labels: Sequence[Hashable] | None = None,
    ) -> None:
        upper = [tuple(sorted(set(ns))) for ns in adj_upper]
        if num_lower is None:
            num_lower = 1 + max((ns[-1] for ns in upper if ns), default=-1)
        lower_lists: list[list[int]] = [[] for __ in range(num_lower)]
        edge_count = 0
        for u, neighbors in enumerate(upper):
            for v in neighbors:
                if v < 0 or v >= num_lower:
                    raise ValueError(
                        f"lower neighbor id {v} of upper vertex {u} out of "
                        f"range [0, {num_lower})"
                    )
                lower_lists[v].append(u)
                edge_count += 1
        lower = [tuple(ns) for ns in lower_lists]  # already sorted by u order
        self._adj: dict[Side, tuple[tuple[int, ...], ...]] = {
            Side.UPPER: tuple(upper),
            Side.LOWER: tuple(lower),
        }
        self._adj_sets: dict[Side, list[frozenset[int]] | None] = {
            Side.UPPER: None,
            Side.LOWER: None,
        }
        self._num_edges = edge_count
        self._labels: dict[Side, tuple[Hashable, ...] | None] = {
            Side.UPPER: tuple(upper_labels) if upper_labels is not None else None,
            Side.LOWER: tuple(lower_labels) if lower_labels is not None else None,
        }
        for side in Side:
            labels = self._labels[side]
            if labels is not None and len(labels) != self.num_vertices_on(side):
                raise ValueError(
                    f"{side.value} labels length {len(labels)} does not match "
                    f"vertex count {self.num_vertices_on(side)}"
                )
        self._label_to_id: dict[Side, dict[Hashable, int] | None] = {
            Side.UPPER: None,
            Side.LOWER: None,
        }

    @classmethod
    def _from_sorted_rows(
        cls,
        upper: tuple[tuple[int, ...], ...],
        lower: tuple[tuple[int, ...], ...],
        num_edges: int,
        labels: dict[Side, tuple[Hashable, ...] | None] | None = None,
        label_ids: dict[Side, dict[Hashable, int] | None] | None = None,
    ) -> "BipartiteGraph":
        """Trusted constructor: rows already normalized and mirrored.

        Callers guarantee each row is a sorted duplicate-free tuple of
        in-range ids and that ``upper``/``lower`` describe the same
        edge set.  Used by the dynamic-adjacency snapshot path
        (:mod:`repro.kernel.dynadj`) to skip the O(E) normalization on
        every update batch.  ``labels`` (one tuple per labelled side,
        one label per vertex) and a matching ``label_ids`` label→id map
        are adopted as they are, so successive snapshots can share one
        map instead of rebuilding it.
        """
        graph = object.__new__(cls)
        graph._adj = {Side.UPPER: upper, Side.LOWER: lower}
        graph._adj_sets = {Side.UPPER: None, Side.LOWER: None}
        graph._num_edges = num_edges
        graph._labels = dict(labels or {Side.UPPER: None, Side.LOWER: None})
        graph._label_to_id = dict(
            label_ids or {Side.UPPER: None, Side.LOWER: None}
        )
        return graph

    # ------------------------------------------------------------------
    # Size accessors
    # ------------------------------------------------------------------
    @property
    def num_upper(self) -> int:
        """Number of vertices in the upper layer ``|U(G)|``."""
        return len(self._adj[Side.UPPER])

    @property
    def num_lower(self) -> int:
        """Number of vertices in the lower layer ``|L(G)|``."""
        return len(self._adj[Side.LOWER])

    @property
    def num_vertices(self) -> int:
        """``|V(G)| = |U(G)| + |L(G)|``."""
        return self.num_upper + self.num_lower

    @property
    def num_edges(self) -> int:
        """``|E(G)|`` — also written ``|G|`` in the paper."""
        return self._num_edges

    def num_vertices_on(self, side: Side) -> int:
        """Number of vertices in the given layer."""
        return len(self._adj[side])

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, side: Side, v: int) -> tuple[int, ...]:
        """Sorted neighbor ids (in the opposite layer) of vertex ``v``."""
        return self._adj[side][v]

    def neighbor_set(self, side: Side, v: int) -> frozenset[int]:
        """Neighbors of ``v`` as a frozenset (cached per layer)."""
        sets = self._adj_sets[side]
        if sets is None:
            sets = [frozenset(ns) for ns in self._adj[side]]
            self._adj_sets[side] = sets
        return sets[v]

    def degree(self, side: Side, v: int) -> int:
        """``deg(v)`` — the number of neighbors of ``v``."""
        return len(self._adj[side][v])

    def max_degree(self, side: Side) -> int:
        """Maximum degree over the given layer (0 for an empty layer)."""
        return max((len(ns) for ns in self._adj[side]), default=0)

    def degrees(self, side: Side) -> list[int]:
        """All degrees of the given layer, indexed by vertex id."""
        return [len(ns) for ns in self._adj[side]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` exists (``u`` upper id, ``v`` lower id)."""
        if self.degree(Side.UPPER, u) <= self.degree(Side.LOWER, v):
            return v in self.neighbor_set(Side.UPPER, u)
        return u in self.neighbor_set(Side.LOWER, v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges as ``(upper_id, lower_id)`` pairs."""
        for u, neighbors in enumerate(self._adj[Side.UPPER]):
            for v in neighbors:
                yield (u, v)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices, upper layer first."""
        for side in (Side.UPPER, Side.LOWER):
            for v in range(self.num_vertices_on(side)):
                yield Vertex(side, v)

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def label(self, side: Side, v: int) -> Hashable:
        """The application-level label of ``v`` (the id itself if unlabeled)."""
        labels = self._labels[side]
        return v if labels is None else labels[v]

    def labels(self, side: Side) -> tuple[Hashable, ...] | None:
        """All labels of the layer, or None when the layer is unlabeled."""
        return self._labels[side]

    def vertex_by_label(self, side: Side, label: Hashable) -> int:
        """Resolve a label back to a vertex id (KeyError if unknown)."""
        labels = self._labels[side]
        if labels is None:
            if isinstance(label, int) and 0 <= label < self.num_vertices_on(side):
                return label
            raise KeyError(label)
        mapping = self._label_to_id[side]
        if mapping is None:
            mapping = {lab: i for i, lab in enumerate(labels)}
            self._label_to_id[side] = mapping
        return mapping[label]

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def degree_one_free(self) -> bool:
        """True when every vertex has at least one incident edge.

        The paper assumes this of its inputs ("all the vertices with
        degree equal to zero are removed").
        """
        return all(
            self.degree(side, v) > 0
            for side in Side
            for v in range(self.num_vertices_on(side))
        )

    def without_isolated_vertices(self) -> "BipartiteGraph":
        """A copy with zero-degree vertices dropped (ids are compacted).

        Labels are carried over so external identifiers stay stable.
        """
        keep = {
            side: [
                v
                for v in range(self.num_vertices_on(side))
                if self.degree(side, v) > 0
            ]
            for side in Side
        }
        remap_lower = {v: i for i, v in enumerate(keep[Side.LOWER])}
        adj_upper = [
            [remap_lower[v] for v in self.neighbors(Side.UPPER, u)]
            for u in keep[Side.UPPER]
        ]

        def kept_labels(side: Side) -> list[Hashable] | None:
            labels = self._labels[side]
            if labels is None:
                return None
            return [labels[v] for v in keep[side]]

        return BipartiteGraph(
            adj_upper,
            num_lower=len(keep[Side.LOWER]),
            upper_labels=kept_labels(Side.UPPER),
            lower_labels=kept_labels(Side.LOWER),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self._adj == other._adj and self._labels == other._labels

    def __hash__(self) -> int:  # immutable; hash by adjacency
        return hash(self._adj[Side.UPPER])

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(|U|={self.num_upper}, |L|={self.num_lower}, "
            f"|E|={self.num_edges})"
        )
