"""The live graph behind ``POST /update``, shared by every service.

:class:`LiveGraph` owns all mutable state of a deployment's streaming
updates: the one adjacency store
(:class:`~repro.kernel.dynadj.DynamicPackedAdjacency`, for every
kernel), the incremental (α,β)-core maintainer
(:class:`~repro.corenum.incremental.IncrementalCoreBounds`, repairing
the shared :class:`~repro.corenum.bounds.CoreBounds` in place), the
mounted PMBC-Index, the update lock, and the current labelled
snapshot.  A single :class:`~repro.serve.service.PMBCService` builds
its own; a :class:`~repro.shard.ShardedService` builds one and hands it
to every shard, so each update batch is applied exactly once.

:meth:`LiveGraph.apply` collapses a batch to its net effect, applies
it in two phases that keep concurrent queries sound — insertions
repair the bounds *before* the graph swap (raised bounds are still
valid upper bounds for the old graph), deletions swap *before*
repairing (the old bounds stay valid-looser for the shrunk graph) —
and hands ``(graph, affected)`` to each attached service, which swaps
its serving graph and evicts the affected warm state.  ``affected``
comes from :func:`~repro.core.dynamic.edge_affected_sets`.

Rebuilt index trees strand the bicliques only their old versions
referenced.  Once ``|A|`` has doubled since the index was mounted or
last compacted, :func:`~repro.core.index.compact_index` drops them and
the compacted copy is published as :attr:`LiveGraph.index`; readers
fetch that attribute per lookup, so one still walking the old copy
finishes on it.  A compaction walks the index once and follows at
least as many added bicliques as it keeps.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.core.dynamic import edge_affected_sets, rebuild_trees
from repro.core.index import PMBCIndex, SearchTree, compact_index
from repro.corenum.bounds import CoreBounds
from repro.corenum.incremental import IncrementalCoreBounds
from repro.graph.bipartite import BipartiteGraph, Side
from repro.kernel import resolve_kernel
from repro.kernel.dynadj import DynamicPackedAdjacency
from repro.serve.errors import InvalidRequestError
from repro.serve.metrics import MetricsRegistry

__all__ = ["LiveGraph", "UpdateResult", "coerce_updates"]


@dataclass(frozen=True)
class UpdateResult:
    """The outcome of one applied update batch."""

    applied: int            # effective edge mutations (net of collapses)
    noops: int              # requested updates that changed nothing
    inserts: int            # effective insertions
    deletes: int            # effective deletions
    trees_repaired: int     # mounted-index trees rebuilt in place
    evicted: int            # partial-index trees dropped
    cascade: int            # vertices touched by bound-repair cascades
    seconds: float          # wall time of the whole batch
    shard: int | None = None    # applying shard (sharded deployments)


def coerce_updates(updates) -> list[tuple[str, int, int]]:
    """Validate ``(action, u, v)`` triples or ``{"action", "u", "v"}`` dicts."""
    ops: list[tuple[str, int, int]] = []
    for raw in updates:
        if isinstance(raw, dict):
            try:
                action, u, v = raw["action"], raw["u"], raw["v"]
            except KeyError as exc:
                raise InvalidRequestError(
                    f"update missing field {exc.args[0]!r}"
                ) from None
        else:
            try:
                action, u, v = raw
            except (TypeError, ValueError):
                raise InvalidRequestError(
                    f"update must be (action, u, v), got {raw!r}"
                ) from None
        if action not in ("insert", "delete"):
            raise InvalidRequestError(
                f"update action must be 'insert' or 'delete', got {action!r}"
            )
        if (
            not isinstance(u, int)
            or not isinstance(v, int)
            or isinstance(u, bool)
            or isinstance(v, bool)
            or u < 0
            or v < 0
        ):
            raise InvalidRequestError(
                f"vertex ids must be non-negative ints: ({u!r}, {v!r})"
            )
        ops.append((action, u, v))
    if not ops:
        raise InvalidRequestError("update batch must contain >= 1 edge")
    return ops


class LiveGraph:
    """The mutable graph state every service of a deployment shares.

    Parameters
    ----------
    graph:
        The starting graph; its labels are carried through every
        post-update snapshot.
    bounds:
        The deployment's :class:`CoreBounds` (``None`` when core bounds
        are off); repaired in place, so every holder observes updates.
    index:
        The mounted :class:`PMBCIndex`, if any; affected trees are
        rebuilt in place once per batch, and a compacted copy replaces
        it whenever ``|A|`` doubles (module docstring).
    kernel:
        Compute kernel for index-tree rebuilds.
    metrics:
        Registry for the ``pmbc_update_*`` series.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        bounds: CoreBounds | None = None,
        index: PMBCIndex | None = None,
        kernel: str | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.graph = graph
        self.bounds = bounds
        self.index = index
        self._compact_at = self._compaction_threshold()
        self.kernel = resolve_kernel(kernel)
        self.lock = threading.Lock()
        self._services: list = []
        #: The live adjacency; built on the first update, together
        #: with the incremental maintainer (which re-peels the sweep
        #: family once, one compute_bounds), so read-only deployments
        #: never pay for either.
        self.adjacency: DynamicPackedAdjacency | None = None
        self._updater: IncrementalCoreBounds | None = None
        self._labels = {side: graph.labels(side) for side in Side}
        self._label_ids: dict[Side, dict | None] = {
            side: None for side in Side
        }
        m = metrics or MetricsRegistry()
        self._updates = m.counter(
            "pmbc_updates_total", "Edge updates by kind (insert/delete/noop)."
        )
        self._batches = m.counter(
            "pmbc_update_batches_total", "Applied update batches."
        )
        self._cascade = m.counter(
            "pmbc_update_cascade_vertices_total",
            "Vertices touched by incremental bound-repair cascades.",
        )
        self._trees = m.counter(
            "pmbc_update_trees_repaired_total",
            "Mounted-index search trees rebuilt by updates.",
        )
        self._repacks = m.counter(
            "pmbc_update_repacks_total",
            "Always 0: the update adjacency keeps no packed rows to re-pack.",
        )
        self._latency = m.histogram(
            "pmbc_update_batch_seconds", "Wall time per applied update batch."
        )

    def attach(self, service) -> None:
        """Serve ``service``: it receives every post-update snapshot."""
        self._services.append(service)

    def apply(self, updates) -> tuple[UpdateResult, list[tuple[int, int]]]:
        """Apply an update batch once, for every attached service.

        ``updates`` is a sequence of ``("insert"|"delete", u, v)``
        triples (or ``{"action", "u", "v"}`` dicts).  Repeated updates
        to the same edge collapse to their net effect; net no-ops
        (inserting a present edge, deleting an absent one) are free and
        only counted.  New vertex ids extend the layers.  Returns the
        outcome and the edges that actually changed.
        """
        start = time.monotonic()
        ops = coerce_updates(updates)
        with self.lock:
            if self.adjacency is None:
                self.adjacency = DynamicPackedAdjacency(self.graph)
                if self.bounds is not None:
                    self._updater = IncrementalCoreBounds(
                        self.graph, bounds=self.bounds
                    )
            adj, updater = self.adjacency, self._updater
            final = {(u, v): action for action, u, v in ops}
            inserts = [
                e for e, a in final.items()
                if a == "insert" and not adj.has_edge(*e)
            ]
            deletes = [
                e for e, a in final.items()
                if a == "delete" and adj.has_edge(*e)
            ]
            cascade = trees = evicted = 0
            if inserts or deletes:
                affected: set[tuple[Side, int]] = set()
                # Phase 1 — insertions: repair bounds, then patch the
                # adjacency; affected sets read the post-insert
                # neighborhoods.  The bounds refresh is deferred across
                # the phase and flushed before the snapshot is published.
                with (
                    updater.defer_refresh()
                    if updater is not None
                    else nullcontext()
                ):
                    for u, v in inserts:
                        if updater is not None:
                            updater.insert_edge(u, v)
                            cascade += updater.last_repair.cascade
                        adj.insert_edge(u, v)
                        self._mark_affected(affected, u, v)
                # Deletions: affected sets read the pre-delete
                # neighborhoods; the swapped snapshot excludes the edges.
                for u, v in deletes:
                    self._mark_affected(affected, u, v)
                    adj.delete_edge(u, v)
                self.graph = self._snapshot()
                for service in self._services:
                    service._swap_graph(self.graph, affected)
                # Phase 2 — deletions repair bounds after the swap.
                if updater is not None:
                    with updater.defer_refresh():
                        for u, v in deletes:
                            updater.delete_edge(u, v)
                            cascade += updater.last_repair.cascade
                trees = self._repair_index(affected)
                evicted = sum(
                    service._evict_partial(affected)
                    for service in self._services
                )
        seconds = time.monotonic() - start
        noops = len(ops) - len(inserts) - len(deletes)
        for kind, count in (
            ("insert", len(inserts)),
            ("delete", len(deletes)),
            ("noop", noops),
        ):
            if count:
                self._updates.inc(count, kind=kind)
        self._batches.inc()
        self._cascade.inc(cascade)
        self._trees.inc(trees)
        self._latency.observe(seconds)
        result = UpdateResult(
            applied=len(inserts) + len(deletes),
            noops=noops,
            inserts=len(inserts),
            deletes=len(deletes),
            trees_repaired=trees,
            evicted=evicted,
            cascade=cascade,
            seconds=seconds,
        )
        return result, inserts + deletes

    def _mark_affected(
        self, affected: set[tuple[Side, int]], u: int, v: int
    ) -> None:
        up, low = edge_affected_sets(
            self.adjacency.neighbors(Side.UPPER, u),
            self.adjacency.neighbors(Side.LOWER, v),
            u,
            v,
        )
        affected.update((Side.UPPER, x) for x in up)
        affected.update((Side.LOWER, x) for x in low)

    def _snapshot(self) -> BipartiteGraph:
        """The current graph, labelled like the starting graph.

        One label→id map per side is kept across snapshots.  A vertex
        added by growth is labelled by its id, which is what
        :meth:`BipartiteGraph.label` returns on an unlabelled graph.
        """
        adj = self.adjacency
        for side in Side:
            labels = self._labels[side]
            if labels is None:
                continue
            ids = self._label_ids[side]
            if ids is None:
                ids = {label: x for x, label in enumerate(labels)}
                self._label_ids[side] = ids
            count = adj.num_vertices_on(side)
            if len(labels) < count:
                grown = range(len(labels), count)
                for x in grown:
                    ids.setdefault(x, x)
                self._labels[side] = labels + tuple(grown)
        return adj.snapshot(labels=self._labels, label_ids=self._label_ids)

    def _repair_index(self, affected: set[tuple[Side, int]]) -> int:
        """Rebuild the mounted index's affected trees in place."""
        index = self.index
        if index is None:
            return 0
        graph = self.graph
        for side in Side:
            trees = index.trees.setdefault(side, [])
            while len(trees) < graph.num_vertices_on(side):
                trees.append(SearchTree())
        index.num_upper = graph.num_upper
        index.num_lower = graph.num_lower
        repaired = rebuild_trees(
            index.trees,
            index.array,
            affected,
            self.adjacency,
            lambda: graph,
            self.bounds,
            self.kernel,
        )
        if len(index.array) >= self._compact_at:
            self.index, __ = compact_index(index)
            self._compact_at = self._compaction_threshold()
        return repaired

    def _compaction_threshold(self) -> int:
        """The ``|A|`` at which the mounted index is next compacted."""
        if self.index is None:
            return 0
        return 2 * max(1, len(self.index.array))

    def stats(self) -> dict:
        """JSON-friendly update counters plus the live state's own stats."""
        return {
            "batches": int(self._batches.total()),
            "inserts": int(self._updates.value(kind="insert")),
            "deletes": int(self._updates.value(kind="delete")),
            "noops": int(self._updates.value(kind="noop")),
            "cascade_vertices": int(self._cascade.total()),
            "trees_repaired": int(self._trees.total()),
            "repacks": int(self._repacks.total()),
            "bounds": self._updater.stats()
            if self._updater is not None
            else None,
            "adjacency": self.adjacency.stats()
            if self.adjacency is not None
            else None,
        }
