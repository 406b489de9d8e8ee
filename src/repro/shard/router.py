"""The shard router: scatter/gather serving over N shard workers.

:class:`ShardedService` fronts ``num_shards`` independent
:class:`~repro.serve.service.PMBCService` instances — one per shard —
behind the :class:`~repro.serve.service.PMBCService` request surface
(``admit`` / ``query`` / ``admit_batch`` / ``query_batch`` / ``stats``
/ ``healthy``), so the HTTP front-ends drive either interchangeably.

Every query is rooted at one vertex, so routing is the
:class:`~repro.shard.partition.ShardMap` ownership rule: single
queries go to the owning shard, and a batch is split into per-shard
sub-batches (each preserving the positions of its requests) that are
admitted concurrently and gathered back into one in-order
:class:`~repro.serve.service.BatchResult`.  Because batch grouping by
query vertex happens *inside* each shard's service, the split costs
nothing extra: a vertex's requests all land on one shard, so shared
two-hop extractions are still paid once.

Failure semantics: every shard holds the full graph (two-hop
subgraphs cross shard boundaries, so the graph cannot be split — what
a shard *owns* is the warm state for its vertices: engine LRU entries,
hot set, adaptive trees, index tier).  A down shard therefore degrades
performance, not availability — its queries reroute to the next
healthy shard (answered cold, marked ``degraded=True``) and only when
*no* shard is healthy does admission fail with
:class:`~repro.serve.service.ServiceClosedError`.

Updates go through one :class:`~repro.serve.live.LiveGraph` that
every shard's service holds, so each batch is applied once: one bounds
repair, one adjacency patch, one index repair, then every shard swaps
to the new snapshot and evicts its own affected warm state.

The router keeps its own :class:`~repro.serve.metrics.MetricsRegistry`
(``pmbc_shard_*``); each shard's service keeps per-shard internals in
its own registry, surfaced via ``stats()["per_shard"]``, where every
shard reports the shared update counts.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace

from repro.core.index import PMBCIndex
from repro.core.query import QueryRequest
from repro.corenum.bounds import compute_bounds
from repro.graph.bipartite import BipartiteGraph, Side
from repro.obs.trace import stitch_summaries
from repro.serve.live import LiveGraph, coerce_updates
from repro.serve.metrics import MetricsRegistry
from repro.serve.service import (
    BatchResult,
    InvalidRequestError,
    PMBCService,
    QueryResult,
    ServiceClosedError,
    ServiceConfig,
    Submission,
    UpdateResult,
)
from repro.shard.partition import ShardMap

__all__ = ["ShardWorker", "ShardedService"]


@dataclass
class ShardWorker:
    """One shard: an id, its vertex span, and its backing service."""

    shard_id: int
    span: tuple[int, int]
    service: PMBCService

    def healthy(self) -> bool:
        """True while the shard's service accepts requests."""
        return self.service.healthy()

    @property
    def num_owned(self) -> int:
        """How many vertices this shard owns."""
        return self.span[1] - self.span[0]


class _CombinedTraceRing:
    """A read-only union view over every shard's trace ring."""

    def __init__(self, workers: list[ShardWorker]) -> None:
        self._workers = workers

    @property
    def capacity(self) -> int:
        return sum(w.service.traces.capacity for w in self._workers)

    @property
    def total_recorded(self) -> int:
        return sum(w.service.traces.total_recorded for w in self._workers)

    def __len__(self) -> int:
        return sum(len(w.service.traces) for w in self._workers)

    def snapshot(self, limit: int | None = None) -> list[dict]:
        entries: list[dict] = []
        for worker in self._workers:
            entries.extend(worker.service.traces.snapshot(limit=limit))
        if limit is not None and limit >= 0:
            entries = entries[:limit]
        return entries

    def find(self, trace_id: str) -> dict | None:
        for worker in self._workers:
            found = worker.service.traces.find(trace_id)
            if found is not None:
                return found
        return None


class ShardedService:
    """Vertex-partitioned serving behind the ``PMBCService`` surface.

    Parameters
    ----------
    graph:
        The bipartite graph; every shard serves the full graph (see
        the module docstring for why), owning the warm state for its
        vertex range.
    num_shards:
        How many shard workers to run (>= 1).
    index:
        Optional prebuilt :class:`PMBCIndex`, shared read-only by
        every shard's index tier.
    config:
        The *per-shard* :class:`ServiceConfig` template —
        ``num_workers``/``exec_workers`` are per shard.  Two knobs are
        adjusted per shard: the adaptive ``index_budget_mb`` is divided
        evenly across shards (each shard budgets its own hot set), and
        ``adaptive_persist_path`` gets a ``.shard<i>`` suffix so
        snapshots never collide.
    metrics:
        Optional registry for the router's ``pmbc_shard_*`` series.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        num_shards: int,
        index: PMBCIndex | None = None,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self.shard_map = ShardMap.for_graph(graph, num_shards)
        # Core bounds are a whole-graph precomputation; do it once and
        # hand the same object to every shard instead of N times over.
        bounds = (
            compute_bounds(graph) if self.config.use_core_bounds else None
        )
        #: The one update state every shard serves from.
        self.live = LiveGraph(
            graph, bounds=bounds, index=index, kernel=self.config.kernel
        )
        self._workers: list[ShardWorker] = []
        for shard_id in range(num_shards):
            shard_config = self._shard_config(shard_id, num_shards)
            service = PMBCService(
                graph,
                index=index,
                config=shard_config,
                bounds=bounds,
                live=self.live,
            )
            self._workers.append(
                ShardWorker(
                    shard_id=shard_id,
                    span=self.shard_map.span(shard_id),
                    service=service,
                )
            )
        self.traces = _CombinedTraceRing(self._workers)
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        self._started_at = time.monotonic()
        self._init_metrics()

    def _shard_config(self, shard_id: int, num_shards: int) -> ServiceConfig:
        changes: dict = {}
        if self.config.adaptive:
            changes["index_budget_mb"] = (
                self.config.index_budget_mb / num_shards
            )
            if self.config.adaptive_persist_path:
                changes["adaptive_persist_path"] = (
                    f"{self.config.adaptive_persist_path}.shard{shard_id}"
                )
        return replace(self.config, **changes) if changes else self.config

    def _init_metrics(self) -> None:
        m = self.metrics
        self._shard_requests = m.counter(
            "pmbc_shard_requests_total",
            "Single queries routed, by answering shard.",
        )
        self._shard_degraded = m.counter(
            "pmbc_shard_degraded_total",
            "Requests rerouted because the owning shard was down.",
        )
        self._shard_batches = m.counter(
            "pmbc_shard_batches_total", "Batches admitted by the router."
        )
        self._batch_splits = m.histogram(
            "pmbc_shard_batch_splits",
            "Sub-batches per scattered batch.",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self._shard_latency = m.histogram(
            "pmbc_shard_request_latency_seconds",
            "End-to-end latency of router-served requests.",
        )
        self._shard_updates = m.counter(
            "pmbc_shard_updates_total",
            "Effective edge updates, by applying shard.",
        )
        self._shard_update_batches = m.counter(
            "pmbc_shard_update_batches_total",
            "Update batches routed by the router.",
        )
        self._shard_update_cross = m.counter(
            "pmbc_shard_update_cross_total",
            "Updated edges whose endpoints are owned by different shards.",
        )
        m.gauge(
            "pmbc_shards", "Configured shard count."
        ).set_function(lambda: len(self._workers))
        m.gauge(
            "pmbc_shards_up", "Shards currently accepting requests."
        ).set_function(
            lambda: sum(1 for w in self._workers if w.healthy())
        )

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> ShardedService:
        """Start every shard's worker pool (idempotent)."""
        with self._lifecycle_lock:
            if self._closed:
                raise ServiceClosedError("sharded service already closed")
        for worker in self._workers:
            worker.service.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Close every shard's service."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        for worker in self._workers:
            worker.service.close(wait=wait)

    def __enter__(self) -> ShardedService:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun."""
        return self._closed

    def healthy(self) -> bool:
        """True while at least one shard accepts requests."""
        return not self._closed and any(w.healthy() for w in self._workers)

    @property
    def graph(self) -> BipartiteGraph:
        """The current (post-update) graph every shard serves."""
        return self.live.graph

    @property
    def shards(self) -> tuple[ShardWorker, ...]:
        """The shard workers, in shard order."""
        return tuple(self._workers)

    @property
    def backend_names(self) -> tuple[str, ...]:
        """Backend chain of shard 0 (identical across shards)."""
        return self._workers[0].service.backend_names

    # ------------------------------------------------------------------
    # routing

    def _owner(self, side: Side, vertex: int) -> int:
        try:
            return self.shard_map.shard_of(side, vertex)
        except ValueError as exc:
            raise InvalidRequestError(str(exc)) from None

    def _healthy_worker(self, owner: int) -> tuple[ShardWorker, bool]:
        """The owning shard, or the next healthy one (degraded)."""
        n = len(self._workers)
        for offset in range(n):
            worker = self._workers[(owner + offset) % n]
            if worker.healthy():
                return worker, offset > 0
        raise ServiceClosedError("no healthy shard")

    @staticmethod
    def _tag(
        inner: Future, shard: int, degraded: bool, observe=None
    ) -> Future:
        """An outer future carrying ``shard``/``degraded`` metadata."""
        outer: Future = Future()

        def _copy(done: Future) -> None:
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            result = replace(
                done.result(), shard=shard, degraded=degraded
            )
            if observe is not None:
                observe(result)
            outer.set_result(result)

        inner.add_done_callback(_copy)
        return outer

    def admit(
        self,
        side: Side | QueryRequest,
        vertex: int | None = None,
        tau_u: int = 1,
        tau_l: int = 1,
        deadline: float | None = None,
        explain: bool = False,
    ) -> Submission:
        """Route one request to its owning shard and admit it there.

        Mirrors :meth:`PMBCService.admit`; the resulting
        :class:`QueryResult` additionally carries the answering
        :attr:`~repro.serve.service.QueryResult.shard` and whether the
        request was
        :attr:`~repro.serve.service.QueryResult.degraded`-rerouted.
        """
        if self._closed:
            raise ServiceClosedError("sharded service is closed")
        if isinstance(side, QueryRequest):
            route_side, route_vertex = side.side, side.vertex
        else:
            if not isinstance(side, Side):
                raise InvalidRequestError(
                    f"side must be a Side, got {side!r}"
                )
            if vertex is None:
                raise InvalidRequestError("query vertex is required")
            route_side, route_vertex = side, vertex
        owner = self._owner(route_side, route_vertex)
        degraded = False
        last_error: Exception = ServiceClosedError("no healthy shard")
        for __ in range(len(self._workers)):
            worker, rerouted = self._healthy_worker(owner)
            degraded = degraded or rerouted
            try:
                inner = worker.service.admit(
                    side, vertex, tau_u, tau_l, deadline, explain
                )
            except ServiceClosedError as exc:
                # Lost the race with a concurrent shard shutdown; skip
                # this worker and retry from the next candidate.
                last_error = exc
                owner = (worker.shard_id + 1) % len(self._workers)
                degraded = True
                continue
            self._shard_requests.inc(shard=str(worker.shard_id))
            if degraded:
                self._shard_degraded.inc(shard=str(worker.shard_id))
            outer = self._tag(
                inner.future,
                worker.shard_id,
                degraded,
                observe=lambda r: self._shard_latency.observe(
                    r.total_seconds
                ),
            )
            return Submission(
                future=outer, budget=inner.budget, _expire=inner.expire
            )
        raise last_error

    def query(
        self,
        side: Side | QueryRequest,
        vertex: int | None = None,
        tau_u: int = 1,
        tau_l: int = 1,
        deadline: float | None = None,
        explain: bool = False,
    ) -> QueryResult:
        """Admit a routed request and block for its answer."""
        return self.admit(
            side, vertex, tau_u, tau_l, deadline, explain
        ).result()

    # ------------------------------------------------------------------
    # batch scatter/gather

    def admit_batch(
        self,
        requests,
        deadline: float | None = None,
        explain: bool = False,
    ) -> Submission:
        """Scatter a batch across owning shards; gather one result.

        The batch is split into at most one sub-batch per shard; each
        sub-batch occupies one queue slot on its shard and is grouped
        by query vertex there, so the scatter preserves the
        single-process batch plan (a vertex's requests always share a
        shard).  Answers come back in request order.  If a sub-batch
        admission fails (queue full, closed), the whole call raises —
        already-admitted sub-batches finish in the background and warm
        their shards' caches.
        """
        if self._closed:
            raise ServiceClosedError("sharded service is closed")
        try:
            coerced = [QueryRequest.of(raw) for raw in requests]
        except (TypeError, ValueError) as exc:
            raise InvalidRequestError(str(exc)) from None
        if not coerced:
            raise InvalidRequestError("batch must contain >= 1 request")

        # Group request positions by healthy owning shard.
        groups: dict[int, tuple[ShardWorker, list[int], bool]] = {}
        any_degraded = False
        for position, request in enumerate(coerced):
            owner = self._owner(request.side, request.vertex)
            worker, rerouted = self._healthy_worker(owner)
            any_degraded = any_degraded or rerouted
            entry = groups.get(worker.shard_id)
            if entry is None:
                entry = (worker, [], rerouted)
                groups[worker.shard_id] = entry
            entry[1].append(position)
            if rerouted:
                groups[worker.shard_id] = (entry[0], entry[1], True)

        inner: list[tuple[ShardWorker, list[int], Submission]] = []
        for shard_id in sorted(groups):
            worker, positions, rerouted = groups[shard_id]
            sub_requests = [coerced[p] for p in positions]
            submission = worker.service.admit_batch(
                sub_requests, deadline=deadline, explain=explain
            )
            self._shard_requests.inc(
                len(positions), shard=str(worker.shard_id)
            )
            if rerouted:
                self._shard_degraded.inc(
                    len(positions), shard=str(worker.shard_id)
                )
            inner.append((worker, positions, submission))
        self._shard_batches.inc()
        self._batch_splits.observe(len(inner))

        outer = self._gather(coerced, inner, any_degraded)
        budget = inner[0][2].budget

        def _expire() -> bool:
            won = False
            for __, __positions, submission in inner:
                won = submission.expire() or won
            return won

        return Submission(future=outer, budget=budget, _expire=_expire)

    def _gather(
        self,
        coerced: list[QueryRequest],
        inner: list[tuple[ShardWorker, list[int], Submission]],
        degraded: bool,
    ) -> Future:
        """Merge sub-batch futures into one in-order batch future."""
        outer: Future = Future()
        lock = threading.Lock()
        slots: list = [None] * len(coerced)
        sub_results: dict[int, BatchResult] = {}
        pending = {len(inner): None}  # mutable countdown cell

        def _one_done(shard_id: int, positions: list[int], done: Future):
            with lock:
                if outer.done():
                    return
                error = done.exception()
                if error is not None:
                    outer.set_exception(error)
                    return
                result: BatchResult = done.result()
                sub_results[shard_id] = result
                for slot, answer in zip(positions, result.bicliques):
                    slots[slot] = answer
                (remaining,) = pending
                pending.clear()
                if remaining > 1:
                    pending[remaining - 1] = None
                    return
            outer.set_result(self._merge(slots, sub_results, degraded))

        for worker, positions, submission in inner:
            submission.future.add_done_callback(
                lambda f, s=worker.shard_id, p=positions: _one_done(s, p, f)
            )
        return outer

    def _merge(
        self,
        slots: list,
        sub_results: dict[int, BatchResult],
        degraded: bool,
    ) -> BatchResult:
        parts = sub_results.values()
        backends = {part.backend for part in parts}
        traces = [part.trace for part in parts if part.trace is not None]
        stitched = None
        if traces:
            stitched = stitch_summaries(
                traces,
                kind="sharded_batch",
                shards=sorted(sub_results),
                backend="mixed" if len(backends) > 1 else backends.copy().pop(),
            )
        merged = BatchResult(
            bicliques=tuple(slots),
            backend=backends.pop() if len(backends) == 1 else "mixed",
            queue_seconds=max(p.queue_seconds for p in parts),
            total_seconds=max(p.total_seconds for p in parts),
            trace=stitched,
            shard=next(iter(sub_results)) if len(sub_results) == 1 else None,
            degraded=degraded,
        )
        self._shard_latency.observe(merged.total_seconds)
        return merged

    def query_batch(
        self,
        requests,
        deadline: float | None = None,
        explain: bool = False,
    ) -> BatchResult:
        """Scatter a batch and block for the merged in-order answers."""
        return self.admit_batch(requests, deadline, explain).result()

    # ------------------------------------------------------------------
    # streaming updates

    def _owner_or_default(self, side: Side, vertex: int) -> int:
        """The owning shard, or shard 0 for ids beyond the shard map.

        Growth inserts reference vertex ids the (construction-time)
        shard map has never seen; they are attributed to shard 0 until
        a re-shard.
        """
        try:
            return self.shard_map.shard_of(side, vertex)
        except ValueError:
            return 0

    def update_batch(self, updates) -> UpdateResult:
        """Apply edge updates across the sharded deployment, once.

        The shared :class:`~repro.serve.live.LiveGraph` repairs the
        bounds, the mounted index and the adjacency once and hands the
        new snapshot to every shard, which swaps to it and drops its
        own affected engine-cache and partial-index entries.  Each
        applied edge is attributed to the shard owning its upper
        endpoint (``pmbc_shard_updates_total``, and ``shard`` on the
        returned :class:`UpdateResult` when one shard owns them all);
        edges whose endpoints are owned by different shards are counted
        in ``pmbc_shard_update_cross_total``.
        """
        if self._closed:
            raise ServiceClosedError("sharded service is closed")
        ops = coerce_updates(updates)
        result, changed = self.live.apply(ops)
        owners: set[int] = set()
        for u, __ in changed:
            owner = self._owner_or_default(Side.UPPER, u)
            owners.add(owner)
            self._shard_updates.inc(shard=str(owner))
        cross = sum(
            1
            for __, u, v in ops
            if self._owner_or_default(Side.UPPER, u)
            != self._owner_or_default(Side.LOWER, v)
        )
        self._shard_update_batches.inc()
        if cross:
            self._shard_update_cross.inc(cross)
        return replace(
            result, shard=owners.pop() if len(owners) == 1 else None
        )

    # ------------------------------------------------------------------
    # introspection

    def stats(self) -> dict:
        """A JSON-friendly router + per-shard snapshot for ``/stats``."""
        return {
            "uptime_seconds": time.monotonic() - self._started_at,
            "healthy": self.healthy(),
            "sharding": {
                **self.shard_map.to_json(),
                "healthy": [w.healthy() for w in self._workers],
                "requests": {
                    str(w.shard_id): self._shard_requests.value(
                        shard=str(w.shard_id)
                    )
                    for w in self._workers
                },
                "degraded": self._shard_degraded.total(),
                "batches": self._shard_batches.total(),
                "batch_splits_mean": self._batch_splits.mean(),
                "updates": {
                    "batches": int(self._shard_update_batches.total()),
                    "applied": {
                        str(w.shard_id): int(
                            self._shard_updates.value(shard=str(w.shard_id))
                        )
                        for w in self._workers
                    },
                    "cross_shard_edges": int(
                        self._shard_update_cross.total()
                    ),
                },
            },
            "latency_seconds": {
                "count": self._shard_latency.count,
                "mean": self._shard_latency.mean(),
                **self._shard_latency.percentiles(),
            },
            "per_shard": [w.service.stats() for w in self._workers],
        }

