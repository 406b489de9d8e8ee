"""Task functions executed by :mod:`repro.exec` workers.

Every task is a module-level function taking ``(state, item)`` where
``state`` is the worker's :class:`WorkerState` — the immutable
:class:`~repro.graph.bipartite.BipartiteGraph`, the precomputed
:class:`~repro.corenum.bounds.CoreBounds`, and a lazily constructed
per-worker :class:`~repro.core.engine.PMBCQueryEngine`.

For the process backend the state is installed **once per worker
process** (inherited through ``fork``, or pickled a single time by the
pool initializer under ``spawn``); work items are then tiny tuples, so
no graph bytes cross the process boundary per query.  For the thread
backend the state is simply shared in-process.

Tasks must stay picklable-by-name (plain module-level functions) and
must return picklable values; they are addressed by string name so the
parent never ships code, only data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.construction import build_search_tree
from repro.core.engine import PMBCQueryEngine
from repro.core.index import BicliqueArray, SearchTree
from repro.core.query import QueryRequest
from repro.core.result import Biclique
from repro.corenum.bounds import CoreBounds
from repro.graph.bipartite import BipartiteGraph
from repro.kernel import resolve_kernel
from repro.obs.trace import SearchTrace, use_trace

__all__ = [
    "WorkerState",
    "initialize_worker",
    "worker_state",
    "run_task",
    "TASKS",
]


@dataclass
class WorkerState:
    """Per-worker shared context: graph, bounds, engine, scratch.

    ``scratch`` is a free-form dict the *thread* backend uses to hand
    shared mutable structures (the locked biclique array and skyline of
    a parallel index build) to tasks; it never crosses a process
    boundary.

    ``kernel`` is the compute kernel every task on this worker searches
    with — resolved **once** (in ``__post_init__``, i.e. once per
    worker process/pool), so tasks never consult the environment, and
    the packed adjacency each search builds is memoized per two-hop
    extraction in the worker's caches rather than re-packed per task
    (see :mod:`repro.kernel.packed`).
    """

    graph: BipartiteGraph
    bounds: CoreBounds | None = None
    cache_size: int = 256
    kernel: str | None = None
    scratch: dict = field(default_factory=dict)
    _engine: PMBCQueryEngine | None = None

    def __post_init__(self) -> None:
        self.kernel = resolve_kernel(self.kernel)

    @property
    def engine(self) -> PMBCQueryEngine:
        """The worker's caching engine (built on first use)."""
        if self._engine is None:
            self._engine = PMBCQueryEngine(
                self.graph,
                use_core_bounds=False,
                cache_size=self.cache_size,
                bounds=self.bounds,
                kernel=self.kernel,
            )
        return self._engine


#: Module-global state of the *current worker process*.  In the parent
#: process this stays None; thread backends carry their state directly.
_STATE: WorkerState | None = None


def initialize_worker(
    graph: BipartiteGraph,
    bounds: CoreBounds | None,
    cache_size: int,
    kernel: str | None = None,
) -> None:
    """Process-pool initializer: install the worker-global state.

    Runs once in each worker process.  Under the ``fork`` start method
    the arguments are inherited copy-on-write; under ``spawn`` they are
    pickled exactly once per worker — never per task.  The compute
    kernel is resolved here, once per worker, alongside the graph and
    CoreBounds.
    """
    global _STATE
    _STATE = WorkerState(
        graph=graph, bounds=bounds, cache_size=cache_size, kernel=kernel
    )
    # Construct the engine (and with it the two-hop LRU that memoizes
    # packed adjacency per extraction) here rather than lazily inside
    # the first task: every per-worker setup step happens in the
    # initializer, and tasks only ever *reuse* the caches.  Re-packing
    # per task would show up as a growing per-worker pack_count() — the
    # regression test in tests/exec guards exactly that.
    _STATE.engine


def worker_state() -> WorkerState:
    """The installed state (raises if the worker was not initialized)."""
    if _STATE is None:
        raise RuntimeError(
            "worker state not initialized — initialize_worker() did not run"
        )
    return _STATE


# ----------------------------------------------------------------------
# tasks


def task_query_batch(state: WorkerState, items) -> list[Biclique | None]:
    """Answer a batch of work items with grouped two-hop reuse.

    The only query task: a single query is a batch of one.
    """
    return state.engine.query_batch([QueryRequest.of(i) for i in items])


def task_query_batch_traced(state: WorkerState, items):
    """Answer a batch under a fresh trace; ``(answers, trace_summary)``.

    The process backend runs in another address space, so the trace
    cannot flow through the parent's context variable; instead the
    worker traces locally and ships the picklable summary back for the
    parent to fold into its own trace
    (:meth:`repro.obs.trace.SearchTrace.merge_summary`).
    """
    requests = [QueryRequest.of(i) for i in items]
    trace = SearchTrace(
        trace_id=requests[0].trace_id if requests else None
    )
    with use_trace(trace):
        answers = state.engine.query_batch(requests)
    return answers, trace.to_dict()


def task_build_tree(state: WorkerState, item):
    """Build one vertex's search tree, returning a portable result.

    The tree is built against a private biclique array and returned
    together with that array's contents, so the parent can merge many
    workers' results into one deduplicated global array.  Used by the
    process backend, where the shared-array/skyline cost-sharing of the
    thread build cannot span address spaces.
    """
    side, q = item
    array = BicliqueArray()
    tree = build_search_tree(
        state.graph, side, q, array, state.bounds, None, kernel=state.kernel
    )
    return side, q, tree, list(array)


def task_build_tree_shared(state: WorkerState, item):
    """Build one vertex's search tree into the shared build structures.

    Thread-backend variant: ``state.scratch['build']`` holds the
    locked global array and (optional) skyline, exactly like the
    pre-executor Algorithm 6 workers.
    """
    side, q = item
    array, bounds, skyline = state.scratch["build"]
    tree = build_search_tree(
        state.graph, side, q, array, bounds, skyline, kernel=state.kernel
    )
    return side, q, tree


def task_pack_count(state: WorkerState, item) -> int:
    """Diagnostic: this worker's cumulative non-memoized pack count.

    Lets tests observe, across the process boundary, how many times the
    bitset kernel actually packed adjacency in this worker — repeated
    queries on the same vertex must reuse the memoized packed view, so
    the count grows with distinct extractions, not with tasks.
    """
    from repro.kernel.packed import pack_count

    return pack_count()


def merge_portable_tree(
    array: BicliqueArray, tree: SearchTree, bicliques: list[Biclique]
) -> SearchTree:
    """Remap a portable tree's biclique ids into the global array."""
    id_map = [array.add(biclique)[0] for biclique in bicliques]
    for node in tree.nodes:
        if node.biclique_id is not None:
            node.biclique_id = id_map[node.biclique_id]
    return tree


#: Name -> task function.  Workers resolve tasks by name so only data
#: crosses the pool boundary.
TASKS = {
    "query_batch": task_query_batch,
    "query_batch_traced": task_query_batch_traced,
    "build_tree": task_build_tree,
    "build_tree_shared": task_build_tree_shared,
    "pack_count": task_pack_count,
}


def run_task(task: str, item):
    """Process-pool entry point: run a named task on this worker."""
    return TASKS[task](worker_state(), item)
