"""One-hop and two-hop reductions (the "maximum biclique preserved subgraph").

Before each Branch&Bound run, vertices that provably cannot belong to a
biclique with at least ``tau_p`` upper and ``tau_w`` lower vertices are
removed (Lyu et al. [5]):

- **one-hop (degree) reduction** — an upper vertex of such a biclique
  has degree ≥ ``tau_w`` and a lower vertex degree ≥ ``tau_p``;
  removal cascades (this is the (``tau_w``, ``tau_p``)-core in local
  orientation).
- **two-hop (wedge) reduction** — an upper vertex needs at least
  ``tau_p − 1`` *other* upper vertices sharing ≥ ``tau_w`` neighbors
  with it (and symmetrically for lower vertices).

Two-hop counting costs one wedge enumeration, so it is skipped when the
estimated wedge count exceeds ``wedge_budget``.

Like the Branch&Bound, the reductions run on either compute kernel (see
:mod:`repro.kernel`): the bitset kernel reuses the per-extraction
packed adjacency (:func:`repro.kernel.pack_local`) and replaces the
degree cascade and wedge enumeration with the mask-narrowing passes of
:mod:`repro.kernel.ops`.  Both kernels kill vertices in the same order
and compute the same survivor fixpoint, so the reduced subgraph — and
the ``reduction`` prune counter derived from it — is identical.
"""

from __future__ import annotations

from collections import Counter, deque

from repro.graph.subgraph import LocalGraph
from repro.kernel import is_packed_kernel, resolve_kernel
from repro.kernel.ops import reduce_alive
from repro.kernel.packed import iter_bits, pack_local

#: Default cap on enumerated wedges before the two-hop rule is skipped.
DEFAULT_WEDGE_BUDGET = 500_000


def _one_hop_survivors(
    local: LocalGraph,
    tau_p: int,
    tau_w: int,
    upper_alive: list[bool],
    lower_alive: list[bool],
) -> None:
    """Cascade degree-based removals in place on the alive masks."""
    adj_upper = local.adj_upper
    adj_lower = local.adj_lower
    deg_upper = [
        sum(lower_alive[v] for v in adj_upper[u]) if upper_alive[u] else 0
        for u in range(local.num_upper)
    ]
    deg_lower = [
        sum(upper_alive[u] for u in adj_lower[v]) if lower_alive[v] else 0
        for v in range(local.num_lower)
    ]
    queue: deque[tuple[bool, int]] = deque()
    for u in range(local.num_upper):
        if upper_alive[u] and deg_upper[u] < tau_w:
            upper_alive[u] = False
            queue.append((True, u))
    for v in range(local.num_lower):
        if lower_alive[v] and deg_lower[v] < tau_p:
            lower_alive[v] = False
            queue.append((False, v))
    while queue:
        is_upper, idx = queue.popleft()
        if is_upper:
            for v in adj_upper[idx]:
                if not lower_alive[v]:
                    continue
                deg_lower[v] -= 1
                if deg_lower[v] < tau_p:
                    lower_alive[v] = False
                    queue.append((False, v))
        else:
            for u in adj_lower[idx]:
                if not upper_alive[u]:
                    continue
                deg_upper[u] -= 1
                if deg_upper[u] < tau_w:
                    upper_alive[u] = False
                    queue.append((True, u))


def _two_hop_filter(
    adjacency: list[set[int]],
    other_adjacency: list[set[int]],
    alive: list[bool],
    other_alive: list[bool],
    need_partners: int,
    need_common: int,
) -> bool:
    """Drop vertices lacking ``need_partners − 1`` peers with
    ``need_common`` shared neighbors.  Returns True if anything died."""
    changed = False
    for x in range(len(adjacency)):
        if not alive[x]:
            continue
        partner_common: Counter[int] = Counter()
        for mid in adjacency[x]:
            if not other_alive[mid]:
                continue
            for y in other_adjacency[mid]:
                if alive[y]:
                    partner_common[y] += 1
        qualified = sum(
            1
            for y, count in partner_common.items()
            if count >= need_common and y != x
        )
        if qualified + 1 < need_partners:
            alive[x] = False
            changed = True
    return changed


def reduce_preserving_maximum(
    local: LocalGraph,
    tau_p: int,
    tau_w: int,
    use_two_hop: bool = True,
    wedge_budget: int = DEFAULT_WEDGE_BUDGET,
    kernel: str | None = None,
) -> LocalGraph:
    """The subgraph preserving all bicliques of shape ≥ (tau_p × tau_w).

    Applies the one-hop fixpoint, optionally one round of two-hop
    filtering on each side, then the one-hop fixpoint again.  The
    result is a re-compacted :class:`LocalGraph`; the anchor survives
    in ``q_local`` when it is not pruned.  ``kernel`` picks the compute
    kernel (None defers to :func:`repro.kernel.default_kernel`); both
    kernels produce the identical reduced subgraph.
    """
    if is_packed_kernel(resolve_kernel(kernel)):
        packed = pack_local(local)
        alive_u, alive_l = reduce_alive(
            packed,
            tau_p,
            tau_w,
            packed.all_upper,
            packed.all_lower,
            use_two_hop=use_two_hop,
            wedge_budget=wedge_budget,
        )
        return local.restrict(
            [packed.upper_order[b] for b in iter_bits(alive_u)],
            [packed.lower_order[b] for b in iter_bits(alive_l)],
        )

    upper_alive = [True] * local.num_upper
    lower_alive = [True] * local.num_lower
    _one_hop_survivors(local, tau_p, tau_w, upper_alive, lower_alive)

    if use_two_hop:
        adj_upper = local.adj_upper
        adj_lower = local.adj_lower
        wedges = sum(
            len(adj_lower[v]) ** 2
            for v in range(local.num_lower)
            if lower_alive[v]
        ) + sum(
            len(adj_upper[u]) ** 2
            for u in range(local.num_upper)
            if upper_alive[u]
        )
        if wedges <= wedge_budget:
            changed = _two_hop_filter(
                adj_upper,
                adj_lower,
                upper_alive,
                lower_alive,
                tau_p,
                tau_w,
            )
            changed |= _two_hop_filter(
                adj_lower,
                adj_upper,
                lower_alive,
                upper_alive,
                tau_w,
                tau_p,
            )
            if changed:
                _one_hop_survivors(
                    local, tau_p, tau_w, upper_alive, lower_alive
                )

    return local.restrict(
        [u for u, ok in enumerate(upper_alive) if ok],
        [v for v, ok in enumerate(lower_alive) if ok],
    )
