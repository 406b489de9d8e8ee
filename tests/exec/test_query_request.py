"""QueryRequest is accepted uniformly across every query surface."""

from __future__ import annotations

import pytest

from repro.core import (
    PMBCQueryEngine,
    build_index_star,
    pmbc_online,
    pmbc_online_star,
)
from repro.core.query import QueryRequest, as_request, pmbc_index_query
from repro.graph.bipartite import Side
from repro.serve import PMBCService, ServiceConfig


def test_query_request_normalizes_side_strings():
    request = QueryRequest("upper", 3, 2, 1)
    assert request.side is Side.UPPER
    assert request.key == (Side.UPPER, 3, 2, 1, "pmbc")
    assert request.to_json() == {
        "side": "upper", "vertex": 3, "tau_u": 2, "tau_l": 1,
    }


def test_query_request_rejects_bad_fields():
    with pytest.raises(TypeError):
        QueryRequest(42, 0)
    with pytest.raises(TypeError):
        QueryRequest(Side.UPPER, "zero")
    with pytest.raises(TypeError):
        QueryRequest(Side.UPPER, 0, tau_u=True)
    with pytest.raises(ValueError):
        QueryRequest("sideways", 0)


def test_query_request_of_accepts_batch_shapes():
    reference = QueryRequest(Side.LOWER, 5, 2, 3)
    assert QueryRequest.of(reference) is reference
    assert QueryRequest.of(("lower", 5, 2, 3)) == reference
    assert QueryRequest.of(["lower", 5, 2, 3]) == reference
    assert (
        QueryRequest.of(
            {"side": "lower", "vertex": 5, "tau_u": 2, "tau_l": 3}
        )
        == reference
    )
    assert QueryRequest.of(("upper", 1)) == QueryRequest(Side.UPPER, 1)
    with pytest.raises(TypeError):
        QueryRequest.of("upper")


def test_as_request_rejects_mixed_forms():
    request = QueryRequest(Side.UPPER, 0)
    assert as_request(request) is request
    with pytest.raises(TypeError):
        as_request(request, 3)
    with pytest.raises(TypeError):
        as_request(Side.UPPER)  # missing vertex


def test_all_surfaces_accept_a_query_request(paper_graph):
    request = QueryRequest(Side.UPPER, 0, 2, 2)
    positional = (Side.UPPER, 0, 2, 2)

    expected = pmbc_online_star(paper_graph, *positional)
    assert (
        pmbc_online(paper_graph, request).num_edges == expected.num_edges
    )
    assert (
        pmbc_online_star(paper_graph, request).num_edges
        == expected.num_edges
    )

    engine = PMBCQueryEngine(paper_graph)
    assert engine.query(request).num_edges == expected.num_edges

    index = build_index_star(paper_graph)
    assert (
        pmbc_index_query(index, request).num_edges == expected.num_edges
    )

    config = ServiceConfig(num_workers=1)
    with PMBCService(paper_graph, index=index, config=config) as service:
        via_service = service.query(request)
        assert via_service.biclique.num_edges == expected.num_edges
        via_future = service.admit(request).future.result(timeout=10)
        assert via_future.biclique.num_edges == expected.num_edges


def test_service_rejects_request_plus_positional(paper_graph):
    from repro.serve import InvalidRequestError

    with PMBCService(
        paper_graph, config=ServiceConfig(num_workers=1)
    ) as service:
        with pytest.raises(InvalidRequestError):
            service.query(QueryRequest(Side.UPPER, 0), 3)
