"""Execution-substrate scaling benchmark (ours).

Two questions about :mod:`repro.exec`:

1. **Process vs thread throughput.**  The branch-and-bound is pure
   Python, so a thread pool saturates one core under the GIL while a
   process pool uses real cores.  With >=4 cores the process backend
   must clear a 2x throughput speedup on a parallel query sweep; on
   smaller hosts the assertion is skipped (the pool only adds IPC
   overhead there) and the measurement is still reported.

2. **Batch extraction sharing.**  On a Zipf-skewed stream with an LRU
   smaller than the working set, a per-query loop re-extracts evicted
   hub subgraphs, while ``query_batch`` groups by vertex and extracts
   each distinct vertex at most once.  The >=30% miss reduction is
   machine-independent (pure counter arithmetic) and asserted always.

Runs standalone too — CI uses ``python benchmarks/test_exec_scaling.py
--quick`` as a crash-only smoke on 2 cores::

    PYTHONPATH=src python benchmarks/test_exec_scaling.py [--quick]
"""

from __future__ import annotations

import os
import time

from repro.bench.workloads import zipf_queries
from repro.core.engine import PMBCQueryEngine
from repro.core.query import QueryRequest
from repro.datasets.zoo import load_dataset
from repro.exec import create_executor

DATASET = "Github"
TAU = 2
SMALL_CACHE = 4
MIN_CORES_FOR_SPEEDUP = 4

try:  # standalone mode has no pytest
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

if pytest is not None:
    pytestmark = pytest.mark.benchmark(group="exec")


def _workload(graph, num_queries: int):
    return [
        QueryRequest(side, vertex, TAU, TAU)
        for side, vertex in zipf_queries(
            graph, num_queries=num_queries, exponent=1.1, seed=13
        )
    ]


def _sweep_seconds(kind: str, graph, requests, num_workers: int) -> float:
    with create_executor(kind, graph, num_workers=num_workers) as executor:
        start = time.perf_counter()
        executor.map("query_batch", [[r] for r in requests])
        return time.perf_counter() - start


def _measure_speedup(graph, requests, num_workers: int) -> dict:
    thread_s = _sweep_seconds("thread", graph, requests, num_workers)
    process_s = _sweep_seconds("process", graph, requests, num_workers)
    return {
        "queries": len(requests),
        "workers": num_workers,
        "cores": os.cpu_count() or 1,
        "thread_seconds": thread_s,
        "process_seconds": process_s,
        "speedup": thread_s / process_s if process_s else float("inf"),
    }


def _measure_batch_sharing(graph, requests) -> dict:
    loop_engine = PMBCQueryEngine(graph, cache_size=SMALL_CACHE)
    for request in requests:
        loop_engine.query(request)
    loop_misses = loop_engine.cache_stats().misses

    batch_engine = PMBCQueryEngine(graph, cache_size=SMALL_CACHE)
    batch_engine.query_batch(requests)
    batch_misses = batch_engine.cache_stats().misses

    distinct = len({(r.side, r.vertex) for r in requests})
    return {
        "queries": len(requests),
        "distinct_vertices": distinct,
        "loop_misses": loop_misses,
        "batch_misses": batch_misses,
        "reduction": 1 - batch_misses / loop_misses if loop_misses else 0.0,
    }


# ----------------------------------------------------------------------
# pytest entry points


def test_process_backend_speedup(benchmark):
    graph = load_dataset(DATASET)
    requests = _workload(graph, num_queries=120)
    workers = min(4, os.cpu_count() or 1)
    info = benchmark.pedantic(
        _measure_speedup,
        args=(graph, requests, workers),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(info)
    if (os.cpu_count() or 1) < MIN_CORES_FOR_SPEEDUP:
        pytest.skip(
            f"{os.cpu_count()} core(s): the 2x speedup target needs "
            f">={MIN_CORES_FOR_SPEEDUP}"
        )
    assert info["speedup"] >= 2.0, info


def test_batch_halves_two_hop_extractions(benchmark):
    graph = load_dataset(DATASET)
    requests = _workload(graph, num_queries=150)
    info = benchmark.pedantic(
        _measure_batch_sharing, args=(graph, requests), rounds=1, iterations=1
    )
    benchmark.extra_info.update(info)
    assert info["batch_misses"] <= info["distinct_vertices"]
    assert info["reduction"] >= 0.30, info


# ----------------------------------------------------------------------
# standalone mode (CI smoke: fails only on crash)


def main(quick: bool = False) -> int:
    graph = load_dataset(DATASET)
    queries = 40 if quick else 150
    requests = _workload(graph, num_queries=queries)
    workers = 2 if quick else min(4, os.cpu_count() or 1)

    speedup = _measure_speedup(graph, requests, workers)
    print(
        "exec sweep: {queries} queries x{workers} workers on "
        "{cores} core(s): thread {thread_seconds:.3f}s, "
        "process {process_seconds:.3f}s, speedup {speedup:.2f}x".format(
            **speedup
        )
    )

    sharing = _measure_batch_sharing(graph, requests)
    print(
        "batch sharing: {queries} Zipf queries, {distinct_vertices} "
        "distinct vertices, loop misses {loop_misses}, batch misses "
        "{batch_misses} ({reduction:.0%} fewer extractions)".format(**sharing)
    )
    return 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small workload, 2 workers"
    )
    raise SystemExit(main(parser.parse_args().quick))
