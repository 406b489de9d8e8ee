"""Unit tests for maximum balanced biclique search."""

from __future__ import annotations

import pytest

from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.generators import complete_bipartite, random_bipartite, star
from repro.mbb import (
    balanced_biclique_reference,
    greedy_balanced_heuristic,
    personalized_balanced_reference,
)
from repro.mbc.oracle import all_closed_bicliques


def _brute_balanced_k(graph):
    """Max k with a (k x k)-biclique, via closed pairs."""
    best = 0
    for upper, lower in all_closed_bicliques(graph):
        best = max(best, min(len(upper), len(lower)))
    return best


def test_complete_bipartite():
    result = balanced_biclique_reference(complete_bipartite(3, 5))
    assert result.shape == (3, 3)


def test_star_is_1x1():
    result = balanced_biclique_reference(star(7))
    assert result.shape == (1, 1)


def test_edgeless():
    graph = BipartiteGraph([[]], num_lower=1)
    assert balanced_biclique_reference(graph) is None
    assert greedy_balanced_heuristic(graph) is None


def test_paper_graph(paper_graph):
    result = balanced_biclique_reference(paper_graph)
    assert result.is_valid_in(paper_graph)
    k = len(result.upper)
    assert result.shape == (k, k)
    assert k == _brute_balanced_k(paper_graph) == 3


@pytest.mark.parametrize("seed", list(range(12)))
def test_exact_matches_brute_force(seed):
    graph = random_bipartite(7, 7, 0.35 + (seed % 4) * 0.15, seed=seed)
    result = balanced_biclique_reference(graph)
    expected = _brute_balanced_k(graph)
    if expected == 0:
        assert result is None
    else:
        assert result is not None
        assert result.is_valid_in(graph)
        assert result.shape == (expected, expected)


@pytest.mark.parametrize("seed", list(range(8)))
def test_greedy_is_valid_and_below_exact(seed):
    graph = random_bipartite(8, 8, 0.5, seed=seed)
    greedy = greedy_balanced_heuristic(graph)
    exact = balanced_biclique_reference(graph)
    if greedy is None:
        return
    assert greedy.is_valid_in(graph)
    k = len(greedy.upper)
    assert greedy.shape == (k, k)
    assert k <= len(exact.upper)


def test_greedy_finds_planted_block():
    from repro.graph.generators import with_planted_blocks

    base = random_bipartite(25, 25, 0.04, seed=2).without_isolated_vertices()
    graph = with_planted_blocks(base, [(5, 5)], seed=3)
    greedy = greedy_balanced_heuristic(graph)
    assert greedy is not None
    assert len(greedy.upper) >= 3  # heuristic should get close to 5


def _brute_personalized_balanced_k(graph, side, q, floor):
    """Max k with a (k x k)-biclique containing q (0 if none >= floor)."""
    best = 0
    for upper, lower in all_closed_bicliques(graph):
        members = upper if side is Side.UPPER else lower
        if q in members:
            best = max(best, min(len(upper), len(lower)))
    return best if best >= floor else 0


@pytest.mark.parametrize("seed", list(range(6)))
def test_personalized_reference_matches_brute_force(seed):
    graph = random_bipartite(7, 7, 0.35 + (seed % 4) * 0.15, seed=seed)
    for side in Side:
        for q in range(graph.num_vertices_on(side)):
            for tau in (1, 2):
                got = personalized_balanced_reference(
                    graph, side, q, tau, tau
                )
                expected = _brute_personalized_balanced_k(
                    graph, side, q, tau
                )
                if expected == 0:
                    assert got is None
                else:
                    assert got is not None
                    assert got.is_valid_in(graph)
                    assert got.contains(side, q)
                    assert got.shape == (expected, expected)


def test_personalized_reference_isolated_vertex():
    graph = BipartiteGraph([[0], []], num_lower=1)
    assert personalized_balanced_reference(graph, Side.UPPER, 1) is None

