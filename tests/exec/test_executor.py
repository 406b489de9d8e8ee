"""Tests for the repro.exec execution substrate.

Covers the ISSUE's required scenarios: the process backend answers
byte-identically to sequential execution on a zoo dataset, backend
creation degrades gracefully to threads on platforms without a usable
start method, and the executor lifecycle/metrics contract holds for
both backends.
"""

from __future__ import annotations

import pytest

from repro.core.engine import PMBCQueryEngine
from repro.core.query import QueryRequest
from repro.datasets.zoo import load_dataset
from repro.exec import (
    EXECUTION_KINDS,
    ExecutorClosedError,
    ProcessBackend,
    ThreadBackend,
    create_executor,
    process_start_method,
)
from repro.exec import executor as executor_module
from repro.graph.bipartite import Side
from repro.serve.metrics import MetricsRegistry


def _workload(graph, stride=7):
    requests = []
    for side in Side:
        for vertex in range(0, graph.num_vertices_on(side), stride):
            for tau_u, tau_l in ((1, 1), (2, 2)):
                requests.append(QueryRequest(side, vertex, tau_u, tau_l))
    return requests


def _edges(answer):
    return None if answer is None else answer.num_edges


@pytest.fixture(scope="module")
def zoo_graph():
    return load_dataset("Writers")


# ----------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("kind", EXECUTION_KINDS)
def test_backend_matches_sequential_engine_on_zoo(zoo_graph, kind):
    engine = PMBCQueryEngine(zoo_graph)
    requests = _workload(zoo_graph)
    expected = [engine.query(request) for request in requests]
    with create_executor(kind, zoo_graph, num_workers=2) as executor:
        assert executor.kind == kind  # no silent fallback on this host
        answers = [
            executor.run("query_batch", [request])[0] for request in requests
        ]
    # Maxima are unique per (vertex, taus) objective value; compare by
    # edge count, the paper's objective.
    assert [_edges(a) for a in answers] == [_edges(e) for e in expected]


@pytest.mark.parametrize("kind", EXECUTION_KINDS)
def test_batch_task_matches_per_item_runs(zoo_graph, kind):
    requests = _workload(zoo_graph, stride=11)
    with create_executor(kind, zoo_graph, num_workers=2) as executor:
        singles = [
            executor.run("query_batch", [request])[0] for request in requests
        ]
        batch = executor.run("query_batch", requests)
    assert [_edges(a) for a in batch] == [_edges(s) for s in singles]


def test_executor_map_preserves_item_order(paper_graph):
    requests = _workload(paper_graph, stride=1)
    with create_executor("process", paper_graph, num_workers=2) as executor:
        mapped = executor.map("query_batch", [[r] for r in requests])
        singles = [
            executor.run("query_batch", [request]) for request in requests
        ]
    assert [_edges(a) for (a,) in mapped] == [_edges(s) for (s,) in singles]


# ----------------------------------------------------------------------
# graceful degradation


def test_thread_fallback_when_no_start_method(paper_graph, monkeypatch):
    monkeypatch.setattr(
        executor_module, "_available_start_methods", lambda: []
    )
    assert process_start_method() is None
    with pytest.warns(RuntimeWarning, match="falling back"):
        executor = create_executor("process", paper_graph, num_workers=2)
    try:
        assert executor.kind == "thread"
        (answer,) = executor.run("query_batch", [QueryRequest(Side.UPPER, 0)])
        assert answer is not None
    finally:
        executor.close()


def test_fallback_warning_names_backend_and_start_method(
    paper_graph, monkeypatch
):
    """The degradation warning must say what was requested and why.

    Regression test: the message used to read "process execution
    unavailable" without naming the requested backend or the platform's
    start method, which made fallback reports ambiguous in logs.
    """
    monkeypatch.setattr(
        executor_module, "_available_start_methods", lambda: []
    )
    with pytest.warns(RuntimeWarning) as captured:
        executor = create_executor("process", paper_graph, num_workers=2)
    executor.close()
    message = str(captured[0].message)
    assert "'process'" in message
    assert "start method: none" in message
    assert "falling back to the thread backend" in message


def test_fallback_warning_reports_requested_start_method(
    paper_graph, monkeypatch
):
    def _broken_pool(self, *args, **kwargs):
        raise OSError("no /dev/shm semaphores")

    monkeypatch.setattr(
        executor_module.ProcessBackend, "__init__", _broken_pool
    )
    with pytest.warns(RuntimeWarning) as captured:
        executor = create_executor(
            "process", paper_graph, num_workers=2, start_method="spawn"
        )
    executor.close()
    message = str(captured[0].message)
    assert "start method: spawn" in message
    assert "no /dev/shm semaphores" in message


def test_process_backend_raises_without_start_method(
    paper_graph, monkeypatch
):
    monkeypatch.setattr(
        executor_module, "_available_start_methods", lambda: []
    )
    with pytest.raises(RuntimeError, match="start method"):
        ProcessBackend(paper_graph)


def test_unknown_kind_rejected(paper_graph):
    with pytest.raises(ValueError, match="execution"):
        create_executor("gpu", paper_graph)


# ----------------------------------------------------------------------
# lifecycle + metrics


def test_closed_executor_rejects_work(paper_graph):
    executor = ThreadBackend(paper_graph, num_workers=1)
    executor.close()
    with pytest.raises(ExecutorClosedError):
        executor.run("query_batch", [QueryRequest(Side.UPPER, 0)])


def test_unknown_task_rejected(paper_graph):
    with ThreadBackend(paper_graph, num_workers=1) as executor:
        with pytest.raises(KeyError):
            executor.run("no-such-task", QueryRequest(Side.UPPER, 0))


@pytest.mark.parametrize("kind", EXECUTION_KINDS)
def test_exec_metrics_are_recorded(paper_graph, kind):
    metrics = MetricsRegistry()
    requests = _workload(paper_graph, stride=2)
    with create_executor(
        kind, paper_graph, num_workers=2, metrics=metrics
    ) as executor:
        executor.map("query_batch", [[r] for r in requests])
        rendered = metrics.render()
    assert "pmbc_exec_tasks_total" in rendered
    assert "pmbc_exec_queue_depth" in rendered
    assert f"pmbc_exec_task_seconds_{kind}" in rendered
    counter = metrics.counter(
        "pmbc_exec_tasks_total", "Executor work items by backend and task."
    )
    assert counter.value(backend=kind, task="query_batch") == len(requests)


# ----------------------------------------------------------------------
# packed-adjacency reuse (bitset kernel)


def test_process_worker_packs_once_per_extraction(paper_graph):
    """Workers must reuse the memoized packed view across tasks.

    Regression test: repeated queries on the same vertex used to be
    able to re-pack adjacency per task if the worker's engine (and its
    two-hop LRU) was rebuilt between tasks.  With the engine installed
    by the pool initializer, the per-worker pack count grows with
    distinct extractions only — never with the number of tasks.
    """
    request = QueryRequest(Side.UPPER, 0, 1, 1)
    other = QueryRequest(Side.LOWER, 1, 1, 1)
    with create_executor(
        "process", paper_graph, num_workers=1, kernel="bitset"
    ) as executor:
        assert executor.kind == "process"
        baseline = executor.run("pack_count", None)
        for _ in range(5):
            executor.run("query_batch", [request])
        assert executor.run("pack_count", None) == baseline + 1
        for _ in range(3):
            executor.run("query_batch", [other])
        assert executor.run("pack_count", None) == baseline + 2


def test_thread_worker_packs_once_per_extraction(paper_graph):
    """The shared-engine thread backend reuses packed views the same way."""
    request = QueryRequest(Side.UPPER, 0, 1, 1)
    with create_executor(
        "thread", paper_graph, num_workers=2, kernel="bitset"
    ) as executor:
        baseline = executor.run("pack_count", None)
        for _ in range(5):
            executor.run("query_batch", [request])
        assert executor.run("pack_count", None) == baseline + 1
