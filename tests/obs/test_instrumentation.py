"""Instrumentation tests: the search stack populates expected counters.

These tests run real queries under an active :class:`SearchTrace` and
assert (a) the trace captures the counters documented in
``docs/observability.md`` and (b) tracing never changes an answer.
"""

from __future__ import annotations

import pytest

from repro.core.construction import build_index
from repro.core.engine import PMBCQueryEngine
from repro.core.online import pmbc_online, pmbc_online_star
from repro.core.query import QueryRequest, pmbc_index_query
from repro.graph.bipartite import Side
from repro.obs import SearchTrace, use_trace


def _traced(fn, *args, **kwargs):
    trace = SearchTrace()
    with use_trace(trace):
        answer = fn(*args, **kwargs)
    return answer, trace


def _same_answer(a, b):
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.num_edges == b.num_edges


# ----------------------------------------------------------------------
# online path


def test_online_populates_search_counters(paper_graph):
    answer, trace = _traced(
        pmbc_online, paper_graph, Side.UPPER, 0, tau_u=2, tau_l=2
    )
    assert answer is not None
    counters = trace.counters
    assert counters["twohop_extractions"] == 1
    assert counters["twohop_vertices"] > 0
    assert counters["twohop_edges"] > 0
    assert counters["progressive_rounds"] >= 1
    assert counters["bb_calls"] >= 1
    assert counters["bb_nodes"] >= 1
    assert len(trace.rounds) == counters["progressive_rounds"]
    names = [span["name"] for span in trace.spans]
    assert "two_hop_extract" in names
    assert "progressive_search" in names


def test_online_star_records_core_prunes(medium_planted_graph):
    answer, trace = _traced(
        pmbc_online_star, medium_planted_graph, Side.UPPER, 0, 2, 2
    )
    untraced = pmbc_online_star(medium_planted_graph, Side.UPPER, 0, 2, 2)
    assert _same_answer(answer, untraced)
    # The bigger planted graph must exercise at least one pruning rule.
    assert sum(trace.prunes.values()) > 0
    assert set(trace.prunes) <= {
        "core_z_bound",
        "core_suffix_bound",
        "core_prefix_bound",
        "tau_filter",
        "shape_cap",
        "non_maximal",
        "size_bound",
        "reduction",
    }


def test_rounds_record_floors_and_nodes(small_random_graph):
    __, trace = _traced(
        pmbc_online, small_random_graph, Side.UPPER, 0, tau_u=1, tau_l=1
    )
    assert trace.rounds
    for round_info in trace.rounds:
        assert round_info["tau_p"] >= 1
        assert round_info["tau_w"] >= 1
        assert round_info["nodes"] >= 0


@pytest.mark.parametrize("fn", [pmbc_online, pmbc_online_star])
def test_tracing_does_not_change_answers(skewed_graph, fn):
    for vertex in range(0, skewed_graph.num_upper, 9):
        untraced = fn(skewed_graph, Side.UPPER, vertex, 2, 2)
        traced, __ = _traced(fn, skewed_graph, Side.UPPER, vertex, 2, 2)
        assert _same_answer(traced, untraced)


# ----------------------------------------------------------------------
# engine path (two-hop cache)


def test_engine_counts_cache_hits_and_misses(paper_graph):
    engine = PMBCQueryEngine(paper_graph)
    request = QueryRequest(Side.UPPER, 0, 2, 2)
    first, trace_miss = _traced(engine.query, request)
    second, trace_hit = _traced(engine.query, request)
    assert _same_answer(first, second)
    assert trace_miss.counters.get("cache_misses") == 1
    assert "cache_hits" not in trace_miss.counters
    assert trace_hit.counters.get("cache_hits") == 1
    assert "cache_misses" not in trace_hit.counters
    # Only the miss pays for a two-hop extraction.
    assert trace_miss.counters["twohop_extractions"] == 1
    assert "twohop_extractions" not in trace_hit.counters


# ----------------------------------------------------------------------
# index path


def test_index_query_counts_tree_visits(paper_graph):
    index = build_index(paper_graph)
    answer, trace = _traced(
        pmbc_index_query, index, Side.UPPER, 0, 2, 2
    )
    untraced = pmbc_index_query(index, Side.UPPER, 0, 2, 2)
    assert _same_answer(answer, untraced)
    assert trace.counters["index_lookups"] == 1
    assert trace.counters["index_nodes_visited"] >= 1
    # The index walk never touches the B&B machinery.
    assert "bb_nodes" not in trace.counters


# ----------------------------------------------------------------------
# cross-kernel parity


KERNELS = ("set", "bitset")


@pytest.mark.parametrize("query", [(Side.UPPER, 0), (Side.LOWER, 3)])
def test_kernels_count_identical_events(skewed_graph, query):
    """Both compute kernels flush identical counters and prune tallies.

    The bitset kernel must be observationally equivalent, not just
    answer-equivalent: ``bb_nodes``, the prune counters behind
    ``pmbc_prune_total{rule=...}``, and the per-round records must all
    match the set kernel event for event.
    """
    side, q = query
    per_kernel = {}
    for kernel in KERNELS:
        answer, trace = _traced(
            pmbc_online, skewed_graph, side, q, 2, 2, kernel=kernel
        )
        per_kernel[kernel] = (answer, trace)
    set_answer, set_trace = per_kernel["set"]
    for kernel in KERNELS[1:]:
        answer, trace = per_kernel[kernel]
        assert _same_answer(set_answer, answer), kernel
        assert set_trace.counters == trace.counters, kernel
        assert set_trace.prunes == trace.prunes, kernel
        assert set_trace.rounds == trace.rounds, kernel


def test_kernels_count_identical_events_with_bounds(medium_planted_graph):
    """Counter parity holds on the PMBC-OL* path (z-bound prunes live)."""
    per_kernel = {}
    for kernel in KERNELS:
        answer, trace = _traced(
            pmbc_online_star,
            medium_planted_graph,
            Side.UPPER,
            0,
            2,
            2,
            kernel=kernel,
        )
        per_kernel[kernel] = (answer, trace)
    set_answer, set_trace = per_kernel["set"]
    for kernel in KERNELS[1:]:
        answer, trace = per_kernel[kernel]
        assert _same_answer(set_answer, answer), kernel
        assert set_trace.counters == trace.counters, kernel
        assert set_trace.prunes == trace.prunes, kernel
        assert set_trace.rounds == trace.rounds, kernel
