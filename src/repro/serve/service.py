"""The query-serving service: queueing, workers, deadlines, fallback.

:class:`PMBCService` turns the in-process query stack
(:func:`~repro.core.query.pmbc_index_query`,
:class:`~repro.core.engine.PMBCQueryEngine`,
:func:`~repro.core.online.pmbc_online_star`) into a shared service
suitable for heavy concurrent traffic:

- **one request pipeline**: a single query is a batch of one.  Every
  admission — :meth:`PMBCService.query`/:meth:`~PMBCService.admit` for
  one :class:`~repro.core.query.QueryRequest`,
  :meth:`~PMBCService.query_batch`/:meth:`~PMBCService.admit_batch`
  for many — takes one slot in a **bounded queue** (a full queue
  rejects at once with :class:`QueueFullError`, which the HTTP
  front-end maps to 429) and is answered by one walk of the backend
  chain; within a batch, requests are grouped by query vertex so
  shared two-hop extractions and the once-per-graph core bounds are
  amortized;
- a **worker pool** draining the queue, so one shared engine (and its
  two-hop LRU) serves every caller;
- **per-request deadlines** with cooperative timeout: expired requests
  are dropped at dequeue time without touching the backend, and
  waiting callers get :class:`DeadlineExceededError` as soon as their
  budget runs out even if a worker is still computing;
- **single-flight deduplication** of identical concurrent single
  ``(side, vertex, tau_u, tau_l, objective)`` requests (see
  :mod:`repro.serve.singleflight`);
- **pluggable execution** (see :mod:`repro.exec`): the CPU-bound
  branch-and-bound runs either in the worker threads themselves
  (``execution="thread"``, the GIL-bound default) or on a process pool
  whose workers inherited the graph once (``execution="process"``,
  real-core parallelism);
- **graceful degradation** across a list of backends, each answering
  ``answer(requests) -> answers | MISS``: adaptive partial index (when
  enabled) → index → execution backend → caching engine → plain online
  search, falling through on unexpected backend failure; a MISS
  (vertex not resident, objective not indexable) falls through cleanly
  without counting as a failure;
- an optional **traffic-adaptive partial index**
  (``ServiceConfig(adaptive=True)``, see :mod:`repro.adaptive`):
  admission feeds a decayed hot-set tracker, a background builder
  constructs hot vertices' search trees off the request path under a
  byte budget, and the resulting trees serve the head of the traffic
  distribution at index speed;
- **streaming graph updates** (:meth:`PMBCService.update_batch`),
  applied by the deployment's :class:`~repro.serve.live.LiveGraph`,
  which hands each post-update snapshot and its affected vertices back
  to the service to swap in and evict;
- **metrics** for all of the above (see :mod:`repro.serve.metrics`).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable

from repro.adaptive.builder import BackgroundBuilder
from repro.adaptive.hotset import HotSetTracker
from repro.adaptive.partial import MISS, PartialIndex
from repro.core.engine import PMBCQueryEngine
from repro.core.index import PMBCIndex
from repro.core.online import pmbc_online_star
from repro.core.query import QueryRequest, pmbc_index_query
from repro.core.result import Biclique
from repro.exec.executor import (
    EXECUTION_KINDS,
    ThreadBackend,
    create_executor,
)
from repro.exec.tasks import WorkerState
from repro.graph.bipartite import BipartiteGraph, Side
from repro.kernel import resolve_kernel
from repro.objectives import get_objective, objective_kinds
from repro.obs.metrics_bridge import publish_trace, register_search_metrics
from repro.obs.ring import TraceRing
from repro.obs.trace import PRUNE_RULES, SearchTrace, current_trace, use_trace
from repro.serve.errors import (
    BackendError,
    DeadlineExceededError,
    InvalidRequestError,
    QueueFullError,
    ServeError,
    ServiceClosedError,
)
from repro.serve.live import LiveGraph, UpdateResult
from repro.serve.metrics import MetricsRegistry
from repro.serve.singleflight import SingleFlight, SingleFlightTimeout

__all__ = [
    "PMBCService",
    "ServiceConfig",
    "QueryResult",
    "BatchResult",
    "UpdateResult",
    "Submission",
    "ServeError",
    "InvalidRequestError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServiceClosedError",
    "BackendError",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for :class:`PMBCService`.

    Attributes
    ----------
    num_workers:
        Size of the worker thread pool.
    max_queue:
        Bound on queued (admitted, not yet running) requests; beyond
        it new requests fail with :class:`QueueFullError`.
    default_deadline:
        Per-request budget in seconds applied when the caller gives
        none; ``None`` disables the default (requests wait forever).
    cache_size:
        LRU capacity of the shared :class:`PMBCQueryEngine`.
    kernel:
        Compute kernel (``"bitset"``/``"set"``) for every
        search the service runs — the shared engine, the process-pool
        workers and the adaptive builder all inherit it.  ``None``
        defers to :func:`repro.kernel.default_kernel`.
    use_core_bounds:
        Precompute (α,β)-core bounds for the engine/online fallbacks
        (PMBC-OL* mode).  Disable for faster startup on huge graphs.
    execution:
        Where the CPU-bound search runs: ``"thread"`` (in the worker
        threads) or ``"process"`` (a
        :class:`repro.exec.ProcessBackend` pool — real cores, at the
        price of per-worker caches).  See docs/execution.md.
    exec_workers:
        Process-pool size for ``execution="process"``; defaults to
        ``num_workers``.
    trace_ring_size:
        How many recent trace summaries ``/debug/traces`` retains.
    adaptive:
        Enable the traffic-adaptive partial index (:mod:`repro.adaptive`):
        a hot-set tracker fed at admission, a background builder, and a
        budgeted partial-index tier at the top of the degradation chain.
    index_budget_mb:
        Memory budget (MiB, paper storage model) for adaptive trees;
        exceeding it evicts least-recently-used entries.
    hot_threshold:
        Decayed query count at which a vertex is promoted to a build
        candidate.
    hot_half_life:
        Seconds for an untouched hot-set counter to halve.
    build_interval:
        Seconds between background build sweeps.
    adaptive_persist_path:
        When set, the hot set is periodically saved there (unified
        ``index.save`` format) and re-warmed from on startup.
    persist_interval:
        Seconds between hot-set persistence snapshots.
    """

    num_workers: int = 8
    max_queue: int = 64
    default_deadline: float | None = 30.0
    cache_size: int = 256
    kernel: str | None = None
    use_core_bounds: bool = True
    execution: str = "thread"
    exec_workers: int | None = None
    trace_ring_size: int = 256
    adaptive: bool = False
    index_budget_mb: float = 64.0
    hot_threshold: float = 3.0
    hot_half_life: float = 300.0
    build_interval: float = 0.1
    adaptive_persist_path: str | None = None
    persist_interval: float = 30.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be positive, got {self.default_deadline}"
            )
        if self.kernel is not None:
            resolve_kernel(self.kernel)
        if self.execution not in EXECUTION_KINDS:
            raise ValueError(
                f"execution must be one of {EXECUTION_KINDS}, "
                f"got {self.execution!r}"
            )
        if self.exec_workers is not None and self.exec_workers < 1:
            raise ValueError(
                f"exec_workers must be >= 1, got {self.exec_workers}"
            )
        if self.trace_ring_size < 1:
            raise ValueError(
                f"trace_ring_size must be >= 1, got {self.trace_ring_size}"
            )
        if self.index_budget_mb <= 0:
            raise ValueError(
                f"index_budget_mb must be positive, got {self.index_budget_mb}"
            )
        if self.hot_threshold <= 0:
            raise ValueError(
                f"hot_threshold must be positive, got {self.hot_threshold}"
            )
        if self.hot_half_life <= 0:
            raise ValueError(
                f"hot_half_life must be positive, got {self.hot_half_life}"
            )
        if self.build_interval <= 0:
            raise ValueError(
                f"build_interval must be positive, got {self.build_interval}"
            )
        if self.persist_interval <= 0:
            raise ValueError(
                f"persist_interval must be positive, got {self.persist_interval}"
            )

    @property
    def index_budget_bytes(self) -> int:
        """The adaptive memory budget in bytes."""
        return int(self.index_budget_mb * 1024 * 1024)


@dataclass(frozen=True)
class QueryResult:
    """A served answer plus serving metadata."""

    biclique: Biclique | None
    backend: str
    shared: bool            # single-flight collapsed this request
    queue_seconds: float    # admission -> worker pickup
    total_seconds: float    # admission -> answer
    trace: dict | None = None   # search trace summary (explain requests)
    shard: int | None = None    # answering shard (sharded deployments)
    degraded: bool = False      # rerouted around a down shard


@dataclass(frozen=True)
class BatchResult:
    """A served batch: per-request answers (in order) plus metadata."""

    bicliques: tuple[Biclique | None, ...]
    backend: str
    queue_seconds: float    # admission -> worker pickup
    total_seconds: float    # admission -> answer
    trace: dict | None = None   # search trace summary (explain requests)
    shard: int | None = None    # answering shard (single-shard batches)
    degraded: bool = False      # some sub-batch rerouted around a down shard

    def __len__(self) -> int:
        return len(self.bicliques)


@dataclass
class _Request:
    """One admitted unit of work: a batch, or a single (a batch of one).

    ``single`` keeps what is specific to singles: single-flight, the
    ``kind="query"`` trace, and a :class:`QueryResult` answer.
    """

    requests: tuple[QueryRequest, ...]
    single: bool
    deadline: float | None          # absolute, time.monotonic() clock
    enqueued_at: float
    explain: bool = False
    future: Future = field(default_factory=Future)


@dataclass
class Submission:
    """A non-blocking admission handle.

    :attr:`future` resolves to the :class:`QueryResult` /
    :class:`BatchResult` (or raises the terminal :class:`ServeError`).
    Async front-ends wrap it with :func:`asyncio.wrap_future` and, when
    their own wait times out, call :meth:`expire` to race the worker
    for the terminal outcome — exactly the settle race :meth:`result`
    runs for blocking callers.

    Attributes
    ----------
    future:
        Resolves to the result, or raises the request's terminal error.
    budget:
        The effective deadline budget in seconds (the caller's, or the
        service default), ``None`` when the request may wait forever.
    """

    future: Future
    budget: float | None
    _expire: object = field(default=None, repr=False)

    def expire(self) -> bool:
        """Settle the request as ``deadline_exceeded`` if still pending.

        Returns True when this call won the race (the future now raises
        :class:`DeadlineExceededError`); False when a worker settled
        first, in which case :attr:`future` already holds the real
        outcome.
        """
        if self._expire is None:
            return False
        return self._expire()

    def result(self) -> QueryResult | BatchResult:
        """Block for the answer within :attr:`budget`.

        Raises :class:`DeadlineExceededError` once the budget runs out,
        even if a worker is still computing; the abandoned computation
        finishes in the background and only warms the caches.
        """
        try:
            return self.future.result(timeout=self.budget)
        except FutureTimeoutError:
            if self.expire():
                raise DeadlineExceededError(
                    f"no answer within {self.budget}s"
                ) from None
            # The worker settled in the same instant; take its outcome.
            return self.future.result()


@dataclass(frozen=True)
class _Backend:
    """One tier of the degradation chain.

    ``answer(requests)`` returns one answer per request, in order, or
    :data:`repro.adaptive.MISS` to fall through to the next tier.
    """

    name: str
    answer: Callable


class _LookupBackend:
    """A precomputed-tree tier: the adaptive partial index or the index.

    Answers a request tuple all-or-MISS, so a batch stays a single
    backend walk: one vertex without a resident tree, or one objective
    the PMBC index storage model cannot answer, sends the whole tuple
    to the next tier.
    """

    def __init__(self, name: str, lookup: Callable) -> None:
        self.name = name
        self._lookup = lookup

    def answer(self, requests):
        """Look every request up, or MISS."""
        answers = []
        for request in requests:
            if not get_objective(request.objective).index_compatible:
                return MISS
            answer = self._lookup(request)
            if answer is MISS:
                return MISS
            answers.append(answer)
        return answers


class PMBCService:
    """A shared, instrumented personalized-biclique query service.

    Parameters
    ----------
    graph:
        The bipartite graph to serve.
    index:
        Optional prebuilt :class:`PMBCIndex`; when given it is the
        primary backend, with the engine and online search as
        fallbacks.  Without it the caching engine is primary.
    config:
        Service tunables (see :class:`ServiceConfig`).
    metrics:
        Optional shared registry; a fresh one is created by default.
    bounds:
        Optional precomputed :class:`~repro.core.bounds.CoreBounds`
        for ``graph``; when given the engine adopts them instead of
        recomputing.  Sharded deployments (:mod:`repro.shard`) compute
        the bounds once and hand the same object to every shard.
    live:
        Optional :class:`~repro.serve.live.LiveGraph` to share with
        other services (it must hold the same ``bounds`` and
        ``index``); by default the service builds its own.

    Use as a context manager, or call :meth:`start` / :meth:`close`::

        with PMBCService(graph, index=index) as service:
            result = service.query(Side.UPPER, 3, tau_u=2, tau_l=2)
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        index: PMBCIndex | None = None,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
        bounds=None,
        live: LiveGraph | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.graph = graph
        self.metrics = metrics or MetricsRegistry()
        self.engine = PMBCQueryEngine(
            graph,
            use_core_bounds=self.config.use_core_bounds,
            cache_size=self.config.cache_size,
            kernel=self.config.kernel,
            bounds=bounds,
        )
        exec_workers = self.config.exec_workers or self.config.num_workers
        if self.config.execution == "process":
            self._executor = create_executor(
                "process",
                graph,
                bounds=self.engine.bounds,
                use_core_bounds=False,
                num_workers=exec_workers,
                cache_size=self.config.cache_size,
                metrics=self.metrics,
                kernel=self.engine.kernel,
            )
        else:
            # Thread execution runs in the serving worker threads
            # against the shared engine (and its LRU).
            self._executor = self._thread_executor(
                graph, exec_workers, self.metrics
            )
        self._fallback_executor: ThreadBackend | None = None
        self._exec_degraded = False

        #: The degradation chain, tried in order.  Each backend has a
        #: ``name`` and ``answer(requests) -> answers | MISS``.
        self.backends: list = []
        if index is not None:
            self.backends.append(
                _LookupBackend(
                    "index", lambda r: pmbc_index_query(self.live.index, r)
                )
            )
        self._exec_backend = _Backend(
            "engine" if self._executor.kind == "thread" else "process",
            self._run_exec,
        )
        self.backends.append(self._exec_backend)
        if self._executor.kind == "process":
            # Keep the in-process engine as a degradation target in
            # case the pool breaks mid-flight.
            self.backends.append(_Backend("engine", self.engine.query_batch))
        self.backends.append(_Backend("online", self._run_online))

        self._prebuilt_coverage: dict | None = None
        if index is not None:
            nonempty = sum(
                1
                for side in Side
                for tree in index.trees.get(side, [])
                if tree.nodes
            )
            total = index.num_upper + index.num_lower
            self._prebuilt_coverage = {
                "vertices": nonempty,
                "fraction": nonempty / total if total else 0.0,
                "bytes": index.total_size_bytes(),
            }

        self._queue: queue.Queue[_Request | None] = queue.Queue(
            maxsize=self.config.max_queue
        )
        self.traces = TraceRing(self.config.trace_ring_size)
        self._flight = SingleFlight()
        self._workers: list[threading.Thread] = []
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        self._started_at = time.monotonic()

        self.hot_set: HotSetTracker | None = None
        self.partial_index: PartialIndex | None = None
        self.builder: BackgroundBuilder | None = None
        self._warm_restored = 0
        if self.config.adaptive:
            self.hot_set = HotSetTracker(
                half_life=self.config.hot_half_life
            )
            self.partial_index = PartialIndex(
                budget_bytes=self.config.index_budget_bytes
            )
            self._warm_restored = self._warm_restart()
            self.builder = BackgroundBuilder(
                graph,
                self._executor,
                self.partial_index,
                self.hot_set,
                threshold=self.config.hot_threshold,
                interval=self.config.build_interval,
                persist_path=self.config.adaptive_persist_path,
                persist_interval=self.config.persist_interval,
                metrics=self.metrics,
                trace_sink=self._absorb_build_trace,
            )
            # The partial tier answers hot vertices ahead of every
            # other backend; misses fall through to the rest of the
            # chain.
            partial = self.partial_index
            self.backends.insert(
                0,
                _LookupBackend(
                    "partial",
                    lambda r: partial.lookup(
                        r.side, r.vertex, r.tau_u, r.tau_l
                    ),
                ),
            )

        self._init_metrics()
        if live is None:
            live = LiveGraph(
                graph,
                bounds=self.engine.bounds,
                index=index,
                kernel=self.engine.kernel,
                metrics=self.metrics,
            )
        #: The update state this service serves from (shared across
        #: the shards of a sharded deployment).
        self.live = live
        live.attach(self)

    def _thread_executor(
        self,
        graph: BipartiteGraph,
        num_workers: int,
        metrics: MetricsRegistry | None = None,
    ) -> ThreadBackend:
        return ThreadBackend(
            graph,
            num_workers=num_workers,
            metrics=metrics,
            state=WorkerState(
                graph=graph,
                bounds=self.engine.bounds,
                cache_size=self.config.cache_size,
                kernel=self.engine.kernel,
                _engine=self.engine,
            ),
        )

    def _run_exec(self, requests) -> list[Biclique | None]:
        if self._executor.kind != "process":
            # Thread execution runs in the calling thread, so the
            # active trace propagates through the context variable.
            return self._executor.run("query_batch", requests)
        # The pool worker traces in its own address space and ships the
        # summary back with the answers for the parent trace to absorb.
        answers, summary = self._executor.run("query_batch_traced", requests)
        trace = current_trace()
        if trace.enabled:
            trace.merge_summary(summary)
        return answers

    def _run_online(self, requests) -> list[Biclique | None]:
        """Stateless PMBC-OL* on the current graph: the last resort."""
        return [
            pmbc_online_star(
                self.graph,
                request,
                bounds=self.engine.bounds,
                kernel=self.engine.kernel,
            )
            for request in requests
        ]

    def _warm_restart(self) -> int:
        """Re-warm the partial index from a persisted hot set.

        Silently starts cold when the snapshot is missing, corrupt, or
        was taken against a different graph shape.  Returns the number
        of trees adopted.
        """
        path = self.config.adaptive_persist_path
        if not path or self.partial_index is None:
            return 0
        try:
            saved = PMBCIndex.load(path)
        except FileNotFoundError:
            return 0
        except Exception:
            return 0
        if (
            saved.num_upper != self.graph.num_upper
            or saved.num_lower != self.graph.num_lower
        ):
            return 0
        return self.partial_index.warm_from(saved)

    def _absorb_build_trace(self, summary: dict) -> None:
        """Feed background-build traces into the ring and metrics."""
        self.traces.append(summary)
        publish_trace(summary, self.metrics)

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> PMBCService:
        """Spin up the worker pool (idempotent)."""
        with self._lifecycle_lock:
            if self._closed:
                raise ServiceClosedError("service already closed")
            if self._workers:
                return self
            for i in range(self.config.num_workers):
                worker = threading.Thread(
                    target=self._worker_loop,
                    name=f"pmbc-serve-worker-{i}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
        if self.builder is not None and not self.builder.closed:
            self.builder.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Stop admitting requests and shut the worker pool down.

        Queued requests are drained and failed with
        :class:`ServiceClosedError`; in-flight computations finish.
        Shutdown order matters: the background builder is stopped (and,
        when waiting, joined) *before* the executor closes, so no
        adaptive build is in flight on a closing substrate and no
        builder thread outlives the service.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        if self.builder is not None:
            self.builder.close(wait=wait)
        # Fail whatever is still queued, then poison the workers.
        self._drain_queue()
        for __ in workers:
            self._queue.put(None)
        if wait:
            for worker in workers:
                worker.join()
            # A request admitted in the race window between the closed
            # check and the drain would otherwise hang its caller.
            self._drain_queue()
            # Closing a process pool waits for in-flight work, so only
            # a waiting close may do it.
            self._executor.close()
            if self._fallback_executor is not None:
                self._fallback_executor.close()

    def _drain_queue(self) -> None:
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                return
            if request is not None:
                self._settle(
                    request,
                    "closed",
                    error=ServiceClosedError("service shut down"),
                )

    def __enter__(self) -> PMBCService:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun."""
        return self._closed

    # ------------------------------------------------------------------
    # metrics plumbing

    def _init_metrics(self) -> None:
        m = self.metrics
        register_search_metrics(m)
        self._requests = m.counter(
            "pmbc_requests_total", "Requests by terminal status."
        )
        self._latency = m.histogram(
            "pmbc_request_latency_seconds",
            "End-to-end latency of successful requests.",
        )
        self._requests_by_objective = m.counter(
            "pmbc_requests_by_objective_total",
            "Admitted requests by query-family objective.",
        )
        self._latency_by_objective = {
            name: m.histogram(
                f"pmbc_request_latency_{name}_seconds",
                f"End-to-end latency of successful {name!r} requests.",
            )
            for name in objective_kinds()
        }
        self._queue_wait = m.histogram(
            "pmbc_queue_wait_seconds",
            "Time between admission and worker pickup.",
        )
        self._backend_queries = m.counter(
            "pmbc_backend_queries_total", "Backend invocations by backend."
        )
        self._fallbacks = m.counter(
            "pmbc_backend_fallbacks_total",
            "Degradations from a failing backend to the next one.",
        )
        self._sf_leaders = m.counter(
            "pmbc_singleflight_leaders_total",
            "Requests that actually ran a computation.",
        )
        self._sf_shared = m.counter(
            "pmbc_singleflight_shared_total",
            "Requests whose computation was shared via single-flight.",
        )
        self._batch_size = m.histogram(
            "pmbc_batch_size", "Requests per admitted batch."
        )
        self._update_evictions = m.counter(
            "pmbc_update_partial_evictions_total",
            "Partial-index trees evicted by updates.",
        )
        depth = m.gauge("pmbc_queue_depth", "Requests waiting in the queue.")
        depth.set_function(self._queue.qsize)
        self._inflight = m.gauge(
            "pmbc_inflight_requests", "Requests admitted but not finished."
        )
        workers_gauge = m.gauge("pmbc_workers", "Worker pool size.")
        workers_gauge.set_function(lambda: len(self._workers))
        for name, reader in (
            ("pmbc_engine_cache_hits", lambda: self.engine.cache_stats().hits),
            (
                "pmbc_engine_cache_misses",
                lambda: self.engine.cache_stats().misses,
            ),
            (
                "pmbc_engine_cache_evictions",
                lambda: self.engine.cache_stats().evictions,
            ),
            (
                "pmbc_engine_cache_size",
                lambda: self.engine.cache_stats().size,
            ),
        ):
            m.gauge(name, "Shared engine two-hop LRU.").set_function(reader)
        self._adaptive_hits = None
        self._adaptive_misses = None
        if self.partial_index is not None:
            self._adaptive_hits = m.counter(
                "pmbc_adaptive_hits_total",
                "Requests answered by the adaptive partial index.",
            )
            self._adaptive_misses = m.counter(
                "pmbc_adaptive_misses_total",
                "Partial-index fall-throughs (vertex not resident).",
            )
            m.gauge(
                "pmbc_adaptive_budget_bytes",
                "Adaptive partial-index memory budget.",
            ).set_function(lambda: self.partial_index.budget_bytes)
            m.gauge(
                "pmbc_adaptive_index_bytes",
                "Accounted size of resident adaptive trees.",
            ).set_function(lambda: self.partial_index.total_bytes)
            m.gauge(
                "pmbc_adaptive_entries",
                "Resident adaptive trees.",
            ).set_function(lambda: len(self.partial_index))

    def _finish(self, status: str) -> None:
        self._requests.inc(status=status)
        self._inflight.dec()

    def _settle(
        self,
        request: _Request,
        status: str,
        result: QueryResult | BatchResult | None = None,
        error: Exception | None = None,
    ) -> bool:
        """Resolve a request's future exactly once.

        The future is the arbiter between the worker and a caller whose
        deadline fired: whichever side settles first does the terminal
        accounting, the loser backs off.  Returns True for the winner.
        """
        try:
            if error is not None:
                request.future.set_exception(error)
            else:
                request.future.set_result(result)
        except InvalidStateError:
            return False
        self._finish(status)
        return True

    # ------------------------------------------------------------------
    # request path

    def _validate(
        self, side: Side, vertex: int, tau_u: int, tau_l: int
    ) -> None:
        if not isinstance(side, Side):
            raise InvalidRequestError(f"side must be a Side, got {side!r}")
        if tau_u < 1 or tau_l < 1:
            raise InvalidRequestError(
                f"size constraints must be >= 1, got ({tau_u}, {tau_l})"
            )
        if not 0 <= vertex < self.graph.num_vertices_on(side):
            raise InvalidRequestError(
                f"vertex {vertex} out of range for the {side.value} layer"
            )

    def _coerce_single(
        self,
        side: Side | QueryRequest,
        vertex: int | None,
        tau_u: int,
        tau_l: int,
    ) -> tuple[QueryRequest]:
        """Normalize raw arguments or a :class:`QueryRequest`.

        The raw-argument surface deliberately rejects non-``Side``
        sides (no string coercion) — validation therefore runs *before*
        a :class:`QueryRequest` is built from raw arguments.
        """
        if isinstance(side, QueryRequest):
            if vertex is not None:
                raise InvalidRequestError(
                    "pass either a QueryRequest or raw arguments, not both"
                )
            self._validate(side.side, side.vertex, side.tau_u, side.tau_l)
            return (side,)
        if vertex is None:
            raise InvalidRequestError("query vertex is required")
        self._validate(side, vertex, tau_u, tau_l)
        return (QueryRequest(side, vertex, tau_u, tau_l),)

    def _coerce_batch(self, requests) -> tuple[QueryRequest, ...]:
        coerced = []
        for raw in requests:
            try:
                request = QueryRequest.of(raw)
            except (TypeError, ValueError) as exc:
                raise InvalidRequestError(str(exc)) from None
            self._validate(
                request.side, request.vertex, request.tau_u, request.tau_l
            )
            coerced.append(request)
        if not coerced:
            raise InvalidRequestError("batch must contain >= 1 request")
        return tuple(coerced)

    def admit(
        self,
        side: Side | QueryRequest,
        vertex: int | None = None,
        tau_u: int = 1,
        tau_l: int = 1,
        deadline: float | None = None,
        explain: bool = False,
    ) -> Submission:
        """Admit one request and return a :class:`Submission` handle.

        Accepts either raw ``(side, vertex, tau_u, tau_l)`` arguments
        or a single :class:`~repro.core.query.QueryRequest`; the handle's
        future resolves to a :class:`QueryResult`.  Raises immediately
        on invalid input, a full queue, or a closed service — admission
        failures never consume a queue slot.  With ``explain=True`` the
        result carries the computation's trace summary in
        :attr:`QueryResult.trace` (a single-flight follower gets the
        leader's trace).
        """
        return self._admit(
            lambda: self._coerce_single(side, vertex, tau_u, tau_l),
            True,
            deadline,
            explain,
        )

    def admit_batch(
        self,
        requests,
        deadline: float | None = None,
        explain: bool = False,
    ) -> Submission:
        """Admit a batch and return a :class:`Submission` handle.

        The handle's future resolves to a :class:`BatchResult`;
        admission failures raise immediately, exactly as :meth:`admit`.
        """
        return self._admit(
            lambda: self._coerce_batch(requests), False, deadline, explain
        )

    def query(
        self,
        side: Side | QueryRequest,
        vertex: int | None = None,
        tau_u: int = 1,
        tau_l: int = 1,
        deadline: float | None = None,
        explain: bool = False,
    ) -> QueryResult:
        """Admit a request and block for its answer.

        The blocking form of :meth:`admit`.  The call returns (or
        raises :class:`DeadlineExceededError`) within the request's
        deadline budget even when a worker is still computing — the
        abandoned computation finishes in the background and only warms
        the cache.
        """
        return self.admit(
            side, vertex, tau_u, tau_l, deadline, explain
        ).result()

    def query_batch(
        self,
        requests,
        deadline: float | None = None,
        explain: bool = False,
    ) -> BatchResult:
        """Admit many requests as one unit and block for all answers.

        ``requests`` is a sequence of
        :class:`~repro.core.query.QueryRequest` (or anything
        ``QueryRequest.of`` accepts: dicts, tuples).  The batch
        occupies a **single** queue slot and is answered by a single
        backend walk; within the batch, requests are grouped by query
        vertex so each distinct vertex's two-hop subgraph is extracted
        at most once (see
        :meth:`~repro.core.engine.PMBCQueryEngine.query_batch`).  The
        deadline covers the whole batch.  Single-flight dedup does not
        apply — vertex grouping already collapses duplicates inside
        the batch.
        """
        return self.admit_batch(requests, deadline, explain).result()

    def _admit(
        self, coerce, single: bool, deadline: float | None, explain: bool
    ) -> Submission:
        if self._closed:
            self._requests.inc(status="closed")
            raise ServiceClosedError("service is closed")
        if not self._workers:
            raise ServiceClosedError("service not started (call start())")
        budget = self.config.default_deadline if deadline is None else deadline
        try:
            requests = coerce()
            if budget is not None and budget <= 0:
                raise InvalidRequestError(
                    f"deadline must be positive, got {budget}"
                )
        except InvalidRequestError:
            self._requests.inc(status="invalid")
            raise
        now = time.monotonic()
        request = _Request(
            requests=requests,
            single=single,
            deadline=None if budget is None else now + budget,
            enqueued_at=now,
            explain=explain,
        )
        if not single:
            self._batch_size.observe(len(requests))
        self._inflight.inc()
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._finish("queue_full")
            raise QueueFullError(
                f"request queue full ({self.config.max_queue} waiting)"
            ) from None
        for r in requests:
            self._requests_by_objective.inc(objective=r.objective)
            # Record at admission (after the queue accepted the
            # request) so single-flight followers still count toward
            # the traffic signal.  Objectives the partial tier cannot
            # answer never feed it, so they cannot evict useful trees.
            if self.hot_set is not None and get_objective(
                r.objective
            ).index_compatible:
                self.hot_set.record(r.side, r.vertex)

        def expire() -> bool:
            return self._settle(
                request,
                "deadline_exceeded",
                error=DeadlineExceededError(f"no answer within {budget}s"),
            )

        return Submission(future=request.future, budget=budget, _expire=expire)

    # ------------------------------------------------------------------
    # worker side

    def _worker_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:  # poison pill
                return
            self._serve(request)

    def _serve(self, request: _Request) -> None:
        if request.future.done():
            # The caller's deadline fired while the request was queued;
            # terminal accounting already happened on that side.
            return
        now = time.monotonic()
        queue_seconds = now - request.enqueued_at
        self._queue_wait.observe(queue_seconds)
        remaining = None if request.deadline is None else request.deadline - now
        if remaining is not None and remaining <= 0:
            self._settle(
                request,
                "deadline_exceeded",
                error=DeadlineExceededError("deadline expired in queue"),
            )
            return
        shared = False
        try:
            if request.single:
                flight = self._flight.do(
                    request.requests[0].key,
                    lambda: self._walk(request),
                    timeout=remaining,
                )
                if flight.leader:
                    self._sf_leaders.inc()
                if flight.shared:
                    self._sf_shared.inc()
                shared = flight.shared and not flight.leader
                answers, backend_name, summary = flight.value
            else:
                answers, backend_name, summary = self._walk(request)
        except SingleFlightTimeout:
            self._settle(
                request,
                "deadline_exceeded",
                error=DeadlineExceededError("deadline expired awaiting flight"),
            )
            return
        except ServeError as exc:
            self._settle(request, "error", error=exc)
            return
        except Exception as exc:  # defensive: never kill a worker
            self._settle(request, "error", error=BackendError(str(exc)))
            return
        total = time.monotonic() - request.enqueued_at
        trace = summary if request.explain else None
        if request.single:
            result = QueryResult(
                biclique=answers[0],
                backend=backend_name,
                shared=shared,
                queue_seconds=queue_seconds,
                total_seconds=total,
                trace=trace,
            )
        else:
            result = BatchResult(
                bicliques=tuple(answers),
                backend=backend_name,
                queue_seconds=queue_seconds,
                total_seconds=total,
                trace=trace,
            )
        status = "ok" if any(a is not None for a in answers) else "empty"
        if self._settle(request, status, result=result):
            self._latency.observe(total)
            for name in {r.objective for r in request.requests}:
                hist = self._latency_by_objective.get(name)
                if hist is not None:
                    hist.observe(total)

    def _walk(self, request: _Request) -> tuple[list, str, dict]:
        """Walk the degradation chain under a fresh trace.

        Every computation (not only explain requests) is traced: the
        summary feeds the trace ring and the aggregated search metrics,
        and single-flight followers reuse it.  One trace covers a whole
        batch; its counters are batch totals.  Returns ``(answers,
        backend name, trace summary)``.
        """
        requests = request.requests
        trace = SearchTrace(
            trace_id=next((r.trace_id for r in requests if r.trace_id), None)
        )
        if request.single:
            (one,) = requests
            trace.annotate(
                kind="query",
                query={
                    "side": one.side.value,
                    "vertex": one.vertex,
                    "tau_u": one.tau_u,
                    "tau_l": one.tau_l,
                    "objective": one.objective,
                },
            )
        else:
            objectives = {r.objective for r in requests}
            trace.annotate(
                kind="batch",
                batch_size=len(requests),
                objective=objectives.pop() if len(objectives) == 1 else "mixed",
            )
        backends = self.backends
        last_error: Exception | None = None
        for position, backend in enumerate(backends):
            self._backend_queries.inc(backend=backend.name)
            try:
                with use_trace(trace):
                    answers = backend.answer(requests)
            except Exception as exc:
                last_error = exc
                nxt = backends[position + 1].name \
                    if position + 1 < len(backends) else "none"
                self._fallbacks.inc(**{"from": backend.name, "to": nxt})
                continue
            partial = (
                backend.name == "partial" and self._adaptive_hits is not None
            )
            if answers is MISS:
                # No resident tree (or an objective the tier cannot
                # answer): a clean fall-through, not a degradation —
                # the fallback counter stays untouched.  Only the
                # partial tier's misses feed the adaptive counters.
                if partial:
                    self._adaptive_misses.inc(len(requests))
                continue
            if partial:
                self._adaptive_hits.inc(len(requests))
            if request.single:
                answer = answers[0]
                trace.annotate(
                    backend=backend.name,
                    result=None
                    if answer is None
                    else {"shape": list(answer.shape), "edges": answer.num_edges},
                )
            else:
                trace.annotate(
                    answered=sum(1 for a in answers if a is not None),
                    backend=backend.name,
                )
            summary = trace.to_dict()
            self.traces.append(summary)
            publish_trace(summary, self.metrics)
            return answers, backend.name, summary
        raise BackendError(
            f"all {len(backends)} backends failed (last: {last_error!r})"
        )

    # ------------------------------------------------------------------
    # streaming updates

    def update_batch(self, updates) -> UpdateResult:
        """Apply edge updates to the live service, incrementally.

        ``updates`` is a sequence of ``("insert"|"delete", u, v)``
        triples (or ``{"action", "u", "v"}`` dicts), applied once by
        this service's :class:`~repro.serve.live.LiveGraph` (see
        :meth:`~repro.serve.live.LiveGraph.apply` for the net-effect
        collapse and the two-phase ordering that keeps concurrent
        queries sound).  Everything is scoped by
        :func:`~repro.core.dynamic.edge_affected_sets` — only affected
        engine cache entries / partial trees / mounted index trees are
        invalidated — so steady-state cost is proportional to the
        touched two-hop neighborhoods, not the graph.  Under
        ``execution="process"`` the pool — whose workers inherited the
        pre-update graph at spawn — is degraded out of the chain on the
        first update and serving falls back to the in-process engine.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        result, __ = self.live.apply(updates)
        return result

    def _swap_graph(
        self, graph: BipartiteGraph, affected: set[tuple[Side, int]]
    ) -> None:
        """Point every serving component at a post-update snapshot.

        Called by :class:`~repro.serve.live.LiveGraph` under its lock.
        """
        self.graph = graph
        self.engine.update_graph(graph, affected)
        if isinstance(self._executor, ThreadBackend):
            # Worker tasks (queries, adaptive builds) read state.graph;
            # the bounds object is repaired in place, never swapped.
            self._executor.state.graph = graph
        elif not self._exec_degraded:
            # Process-pool workers inherited the pre-update graph when
            # they were spawned; drop the pool from the chain for good
            # and serve from the in-process engine (already a fallback
            # backend in process mode).  The chain is rebound, not
            # mutated, so walks in flight keep a consistent list.
            self.backends = [
                b for b in self.backends if b is not self._exec_backend
            ]
            self._exec_degraded = True
            if self.builder is not None:
                self._fallback_executor = self._thread_executor(graph, 1)
        if self._fallback_executor is not None:
            self._fallback_executor.state.graph = graph
        if self.builder is not None:
            self.builder.update_graph(graph, executor=self._fallback_executor)

    def _evict_partial(self, affected) -> int:
        """Drop affected adaptive trees; the builder re-warms hot ones."""
        if self.partial_index is None:
            return 0
        evicted = sum(
            1 for side, x in affected if self.partial_index.evict(side, x)
        )
        if evicted:
            self._update_evictions.inc(evicted)
            if self.builder is not None:
                self.builder.kick()
        return evicted

    # ------------------------------------------------------------------
    # introspection

    @property
    def backend_names(self) -> tuple[str, ...]:
        """Answer-backend names in the order they are tried."""
        return tuple(b.name for b in self.backends)

    def healthy(self) -> bool:
        """True while workers are alive and the service is open."""
        return bool(self._workers) and not self._closed

    def invalidate_edge(self, u: int, v: int) -> list[tuple[Side, int]]:
        """Drop adaptive trees an update to edge ``(u, v)`` affects.

        Applies :func:`repro.core.dynamic.edge_affected_sets` to the
        partial index — the same rule
        :class:`~repro.core.dynamic.DynamicPMBCIndex` rebuilds by.
        Returns the dropped keys; a no-op (``[]``) when the adaptive
        tier is disabled.  Vertices that stay hot are rebuilt by the
        background builder on its next sweep.
        """
        if self.partial_index is None:
            return []
        dropped = self.partial_index.invalidate_edge(self.graph, u, v)
        if dropped and self.builder is not None:
            self.builder.kick()
        return dropped

    def index_coverage(self) -> dict:
        """Which fraction of vertices have a prebuilt/adaptive tree."""
        total = self.graph.num_upper + self.graph.num_lower
        adaptive = None
        if self.partial_index is not None:
            adaptive = {
                "vertices": len(self.partial_index),
                "fraction": self.partial_index.coverage(
                    self.graph.num_upper, self.graph.num_lower
                ),
                "bytes": self.partial_index.total_bytes,
                "budget_bytes": self.partial_index.budget_bytes,
            }
        return {
            "total_vertices": total,
            "prebuilt": self._prebuilt_coverage,
            "adaptive": adaptive,
        }

    def _objective_stats(self) -> dict:
        """Per-objective request/latency/prune breakdown for ``/stats``.

        Rows come from the :mod:`repro.objectives` registry, so a
        freshly registered query family shows up (zeroed) without any
        serving-layer change.  Search-node and prune counts read the
        objective-labelled series :mod:`repro.obs.metrics_bridge`
        publishes from each computation's trace summary.
        """
        nodes = self.metrics.get("pmbc_search_nodes_total")
        prunes = self.metrics.get("pmbc_prune_total")
        breakdown: dict[str, dict] = {}
        for name in objective_kinds():
            hist = self._latency_by_objective[name]
            pruned = {}
            if prunes is not None:
                for rule in PRUNE_RULES:
                    count = prunes.value(rule=rule, objective=name)
                    if count:
                        pruned[rule] = int(count)
            breakdown[name] = {
                "requests": int(
                    self._requests_by_objective.value(objective=name)
                ),
                "latency_seconds": {
                    "count": hist.count,
                    "mean": hist.mean(),
                    **hist.percentiles(),
                },
                "search_nodes": int(nodes.value(objective=name))
                if nodes is not None
                else 0,
                "prunes": pruned,
            }
        return breakdown

    def stats(self) -> dict:
        """A JSON-friendly snapshot for ``/stats`` and dashboards."""
        cache = self.engine.cache_stats()
        adaptive = None
        if self.partial_index is not None:
            adaptive = {
                "partial_index": self.partial_index.stats(),
                "builder": self.builder.stats()
                if self.builder is not None
                else None,
                "hot_set": {
                    "tracked": len(self.hot_set),
                    "threshold": self.config.hot_threshold,
                    "half_life": self.config.hot_half_life,
                    "top": self.hot_set.snapshot(limit=10),
                },
                "hits": self._adaptive_hits.total(),
                "misses": self._adaptive_misses.total(),
                "warm_restored": self._warm_restored,
            }
        return {
            "uptime_seconds": time.monotonic() - self._started_at,
            "healthy": self.healthy(),
            "workers": len(self._workers),
            "queue": {
                "depth": self._queue.qsize(),
                "capacity": self.config.max_queue,
            },
            "backends": list(self.backend_names),
            "kernel": self.engine.kernel,
            "execution": {
                "kind": self._executor.kind,
                "workers": self._executor.num_workers,
                "start_method": getattr(
                    self._executor, "start_method", None
                ),
            },
            "batch": {
                "count": self._batch_size.count,
                "mean_size": self._batch_size.mean(),
            },
            "requests": {
                "ok": self._requests.value(status="ok"),
                "empty": self._requests.value(status="empty"),
                "invalid": self._requests.value(status="invalid"),
                "queue_full": self._requests.value(status="queue_full"),
                "deadline_exceeded": self._requests.value(
                    status="deadline_exceeded"
                ),
                "error": self._requests.value(status="error"),
                "closed": self._requests.value(status="closed"),
            },
            "latency_seconds": {
                "count": self._latency.count,
                "mean": self._latency.mean(),
                **self._latency.percentiles(),
            },
            "objectives": self._objective_stats(),
            "queue_wait_seconds": {
                "count": self._queue_wait.count,
                "mean": self._queue_wait.mean(),
                **self._queue_wait.percentiles(),
            },
            "singleflight": {
                "leaders": self._sf_leaders.total(),
                "shared": self._sf_shared.total(),
                "in_flight": self._flight.in_flight(),
            },
            "traces": {
                "buffered": len(self.traces),
                "capacity": self.traces.capacity,
                "recorded": self.traces.total_recorded,
            },
            "engine_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "size": cache.size,
                "capacity": cache.capacity,
                "hit_rate": cache.hit_rate,
            },
            "index_coverage": self.index_coverage(),
            "adaptive": adaptive,
            "updates": {
                **self.live.stats(),
                "partial_evictions": int(self._update_evictions.total()),
                "exec_degraded": self._exec_degraded,
            },
        }
