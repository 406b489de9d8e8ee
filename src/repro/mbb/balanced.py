"""Balanced-biclique reference implementations (exact, greedy, personalized).

This package is the *oracle* side of the pluggable-objective design:
the production surface for balanced queries is the ``"balanced"``
objective in :mod:`repro.objectives` (reachable from every query
entry point via ``objective="balanced"``), and the functions here are
deliberately simple level-by-level searches the differential suite
checks it against.

Exact method: a (k×k)-biclique can only live inside the (k,k)-core
(Definition 6), and the largest non-empty (δ,δ)-core bounds k ≤ δ.  We
walk k downward from δ and, per level, run the Branch&Bound substrate
on the (k,k)-core asking for any biclique with both layers ≥ k — the
first hit, trimmed to (k×k), is optimal.

Personalized method (:func:`personalized_balanced_reference`): the
same level-by-level walk, but over the query vertex's two-hop subgraph
``H_q`` with the anchor protected — the oracle for
``objective="balanced"`` personalized queries.

Heuristic method (the vertex-deletion scheme of the defect-tolerance
literature the paper cites, refs [19]-[20]): repeatedly delete an
endpoint of some missing pair, preferring the vertex covering the most
missing pairs, until the remaining subgraph is complete; then trim the
larger layer.
"""

from __future__ import annotations


from repro.core.result import Biclique
from repro.corenum.peeling import alpha_beta_core, max_delta
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.subgraph import LocalGraph
from repro.mbc.branch_bound import BranchBoundConfig, branch_and_bound


def _core_local_graph(
    graph: BipartiteGraph, upper: set[int], lower: set[int]
) -> LocalGraph:
    upper_sorted = sorted(upper)
    lower_sorted = sorted(lower)
    lower_remap = {v: i for i, v in enumerate(lower_sorted)}
    upper_remap = {u: i for i, u in enumerate(upper_sorted)}
    adj_upper = [
        {lower_remap[v] for v in graph.neighbors(Side.UPPER, u) if v in lower}
        for u in upper_sorted
    ]
    adj_lower = [
        {upper_remap[u] for u in graph.neighbors(Side.LOWER, v) if u in upper}
        for v in lower_sorted
    ]
    return LocalGraph(
        adj_upper=adj_upper,
        adj_lower=adj_lower,
        upper_globals=upper_sorted,
        lower_globals=lower_sorted,
        upper_side=Side.UPPER,
    )


def balanced_biclique_reference(graph: BipartiteGraph) -> Biclique | None:
    """The largest (k×k)-biclique, trimmed to balance; None if edgeless.

    Exact.  Worst-case exponential (the problem is NP-hard), intended
    for the moderate graph sizes of this repository.
    """
    delta = max_delta(graph)
    for k in range(delta, 0, -1):
        upper, lower = alpha_beta_core(graph, k, k)
        if len(upper) < k or len(lower) < k:
            continue
        local = _core_local_graph(graph, upper, lower)
        found = branch_and_bound(
            local,
            BranchBoundConfig(tau_p=k, tau_w=k),
            initial_best_size=k * k - 1,
        )
        if found is None:
            continue
        upper_ids = sorted(local.upper_globals[u] for u in found[0])[:k]
        lower_ids = sorted(local.lower_globals[v] for v in found[1])[:k]
        return Biclique(upper=frozenset(upper_ids), lower=frozenset(lower_ids))
    return None


def personalized_balanced_reference(
    graph: BipartiteGraph,
    side: Side,
    q: int,
    tau_u: int = 1,
    tau_l: int = 1,
) -> Biclique | None:
    """The largest balanced biclique containing ``q``, trimmed to (k×k).

    The oracle for ``objective="balanced"`` personalized queries: a
    plain level-by-level walk over ``H_q`` with no progressive
    bounding, no core-bound hooks and no kernel tricks, so the
    differential suite can check the production objective against an
    independently simple implementation.  Both layers of the answer
    have exactly ``k = min(|U|, |L|)`` vertices with
    ``k >= max(tau_u, tau_l)``; returns None when no such biclique
    contains ``q``.
    """
    from repro.core.online import extract_local

    floor = max(tau_u, tau_l, 1)
    local = extract_local(graph, side, q, "set")
    if local.num_lower == 0:
        return None
    # Every lower vertex of H_q is adjacent to q, so the left-closed
    # search (P = Γ(W)) keeps q in every enumerated biclique.
    for k in range(min(local.num_upper, local.num_lower), floor - 1, -1):
        found = branch_and_bound(
            local,
            BranchBoundConfig(
                tau_p=k, tau_w=k, protected_upper=local.q_local
            ),
            initial_best_size=k * k - 1,
            kernel="set",
        )
        if found is None:
            continue
        keep_upper = [local.q_local]
        for u in sorted(found[0]):
            if len(keep_upper) >= k:
                break
            if u != local.q_local:
                keep_upper.append(u)
        _, own, other = local.to_global(
            frozenset(keep_upper), frozenset(sorted(found[1])[:k])
        )
        if local.upper_side is Side.UPPER:
            return Biclique(upper=own, lower=other)
        return Biclique(upper=other, lower=own)
    return None


def greedy_balanced_heuristic(graph: BipartiteGraph) -> Biclique | None:
    """Vertex-deletion heuristic; fast, no optimality guarantee.

    Core-guided: for each level k from δ down, the deletion loop runs
    inside the (k,k)-core (where a (k×k)-biclique must live if one
    exists); the best balanced biclique over all levels is returned.
    """
    best: Biclique | None = None
    for k in range(max_delta(graph), 0, -1):
        if best is not None and len(best.upper) >= k:
            break  # deeper cores cannot be certified to do better
        upper, lower = alpha_beta_core(graph, k, k)
        if len(upper) < k or len(lower) < k:
            continue
        candidate = _deletion_loop(graph, set(upper), set(lower))
        if candidate is not None and (
            best is None or len(candidate.upper) > len(best.upper)
        ):
            best = candidate
    return best


def _deletion_loop(
    graph: BipartiteGraph, upper: set[int], lower: set[int]
) -> Biclique | None:
    """Delete missing-pair endpoints until the remainder is complete."""
    if not upper or not lower:
        return None
    while True:
        # Missing pairs per vertex within the current candidate sets.
        missing_upper = {
            u: len(lower - graph.neighbor_set(Side.UPPER, u)) for u in upper
        }
        missing_lower = {
            v: len(upper - graph.neighbor_set(Side.LOWER, v)) for v in lower
        }
        worst_upper = max(upper, key=lambda u: (missing_upper[u], u))
        worst_lower = max(lower, key=lambda v: (missing_lower[v], v))
        if missing_upper[worst_upper] == 0 and missing_lower[worst_lower] == 0:
            break  # complete biclique reached
        # Delete from the larger layer when possible (keeps balance),
        # otherwise the vertex covering the most missing pairs.
        if missing_upper[worst_upper] >= missing_lower[worst_lower]:
            upper.discard(worst_upper)
        else:
            lower.discard(worst_lower)
        if not upper or not lower:
            return None
    k = min(len(upper), len(lower))
    return Biclique(
        upper=frozenset(sorted(upper)[:k]),
        lower=frozenset(sorted(lower)[:k]),
    )

