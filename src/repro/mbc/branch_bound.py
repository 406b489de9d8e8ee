"""The Branch&Bound procedure (Algorithm 1, lines 11–22).

Adapted from the maximal-biclique-enumeration branch-and-bound of
Zhang et al. (iMBEA) as done by Lyu et al. [5]: the search enumerates
(left-closed) bicliques by growing the lower vertex set ``W`` and
maintaining ``P`` as the exact set of upper vertices adjacent to all of
``W``.  Four vertex sets drive the recursion:

- ``P`` — upper vertices of the current biclique (common neighbors of W);
- ``W`` — lower vertices chosen (plus "free" vertices whose
  neighborhood covers ``P``);
- ``R`` — candidate lower vertices still addable;
- ``X`` — lower vertices excluded earlier (for non-maximality pruning).

Two interchangeable compute kernels drive the recursion (selected per
call, per engine, or by the ``PMBC_KERNEL`` environment variable — see
:mod:`repro.kernel`):

- ``"bitset"`` (default) — :mod:`repro.kernel.bitset`: the sets above
  are packed int bitmasks over degree-ordered local ids; intersections
  are big-int ``&`` and sizes are ``int.bit_count()``.
- ``"set"`` — the original ``frozenset`` recursion in this module, the
  differential-testing reference.

Both kernels visit the same nodes, make the same pruning decisions and
return identical answers; the property suite asserts this on random
graphs.

Extensions over the plain procedure, all optional via
:class:`BranchBoundConfig`:

- **Lemma 6 shape caps** (``max_u``/``max_l``) used during index
  construction: a child node's answer is known to have strictly fewer
  vertices on one layer than its parent's, so recordings beyond the cap
  are skipped and branches whose ``W`` exceeds ``max_l`` are pruned
  (``W`` only grows down a branch).
- **(α,β)-core bounds of PMBC-OL*** — callbacks that bound the best
  biclique a vertex can still participate in (Section VI-C): candidates
  are skipped and upper vertices dropped when their bound cannot beat
  the incumbent.
- **Anchor protection** — the anchored query vertex is never dropped
  from ``P`` by the upper-bound pruning, which guarantees every
  recorded biclique contains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graph.subgraph import LocalGraph
from repro.kernel import is_packed_kernel, resolve_kernel
from repro.kernel.bitset import bitset_search
from repro.objectives import PMBC_OBJECTIVE, Objective
from repro.obs.trace import current_trace


@dataclass
class BranchBoundConfig:
    """Knobs for one Branch&Bound run (all sizes in *local* orientation)."""

    tau_p: int = 1
    """Minimum number of upper (P-side) vertices in a recorded biclique."""

    tau_w: int = 1
    """Minimum number of lower (W-side) vertices in a recorded biclique."""

    max_p: int | None = None
    """Inclusive Lemma 6 cap on upper vertices of a recorded biclique."""

    max_w: int | None = None
    """Inclusive Lemma 6 cap on lower vertices; also prunes branches."""

    prune_non_maximal: bool = True
    """Prune branches dominated by an excluded vertex (standard MBEA rule)."""

    lower_bound_at_least: Callable[[int, int], int] | None = None
    """``f(v, k)`` — max size of a biclique containing lower vertex ``v``
    with at least ``k`` lower vertices (PMBC-OL* suffix bound)."""

    upper_bound_at_most: Callable[[int, int], int] | None = None
    """``f(u, i)`` — max size of a biclique containing upper vertex ``u``
    with at most ``i`` upper vertices (PMBC-OL* prefix bound)."""

    protected_upper: int | None = None
    """Local upper vertex that must never be pruned (the anchor ``q``)."""

    objective: Objective = PMBC_OBJECTIVE
    """Query-family scoring/bounding rule; the default is the paper's
    edge-count objective (see :mod:`repro.objectives`)."""


class _SearchState:
    """Mutable incumbent shared across the recursion.

    Besides the incumbent, the state accumulates per-rule prune tallies
    as plain integers — the near-zero-cost half of the tracing design:
    the hot recursion only ever increments ints, and
    :func:`branch_and_bound` flushes the totals to the active
    :mod:`repro.obs` trace once per run (a no-op under the null trace).
    """

    __slots__ = (
        "best_upper",
        "best_lower",
        "best_size",
        "nodes",
        "skip_suffix",
        "drop_prefix",
        "skip_tau",
        "prune_shape",
        "prune_dominated",
        "prune_bound",
    )

    def __init__(self, best_size: int) -> None:
        self.best_upper: frozenset[int] | None = None
        self.best_lower: frozenset[int] | None = None
        self.best_size = best_size
        self.nodes = 0
        self.skip_suffix = 0      # Lemma 9 suffix bound skipped v*
        self.drop_prefix = 0      # Lemma 9 prefix bound dropped u from P'
        self.skip_tau = 0         # P' fell below tau_p
        self.prune_shape = 0      # Lemma 6 cap on |W'|
        self.prune_dominated = 0  # excluded vertex dominates (non-maximal)
        self.prune_bound = 0      # size bound: cannot beat the incumbent


def branch_and_bound(
    local: LocalGraph,
    config: BranchBoundConfig,
    initial_best_size: int = 0,
    kernel: str | None = None,
) -> tuple[frozenset[int], frozenset[int]] | None:
    """Find a biclique scoring above ``initial_best_size`` under ``config``.

    Returns local ``(upper_ids, lower_ids)`` of the best biclique whose
    ``config.objective`` score strictly exceeds ``initial_best_size``
    while meeting the minimum constraints and Lemma 6 caps, or None
    when no such biclique exists.  Every returned biclique contains
    ``config.protected_upper`` when that vertex is adjacent to all
    local lower vertices (true for an anchored two-hop subgraph).

    ``kernel`` picks the compute kernel (``"bitset"``/``"set"``); None
    defers to :func:`repro.kernel.default_kernel`.
    """
    state = _SearchState(initial_best_size)
    if is_packed_kernel(resolve_kernel(kernel)):
        bitset_search(local, config, state)
    else:
        p_all = frozenset(range(local.num_upper))
        candidates = sorted(
            range(local.num_lower), key=local.degree_lower, reverse=True
        )
        _recurse(local, config, state, p_all, frozenset(), candidates, [])
    flush_search_trace(state)
    if state.best_upper is None:
        return None
    return state.best_upper, state.best_lower


def flush_search_trace(state: _SearchState) -> None:
    """Flush one run's accumulated counters to the active trace.

    Shared by both kernels (and the mask-space progressive loop, which
    runs the bitset search directly) so every branch-and-bound run
    reports ``bb_calls``/``bb_nodes`` and per-rule prune tallies the
    same way.  A no-op under the null trace.
    """
    trace = current_trace()
    if trace.enabled:
        trace.add("bb_calls")
        trace.add("bb_nodes", state.nodes)
        trace.prune("core_suffix_bound", state.skip_suffix)
        trace.prune("core_prefix_bound", state.drop_prefix)
        trace.prune("tau_filter", state.skip_tau)
        trace.prune("shape_cap", state.prune_shape)
        trace.prune("non_maximal", state.prune_dominated)
        trace.prune("size_bound", state.prune_bound)


def _recurse(
    local: LocalGraph,
    config: BranchBoundConfig,
    state: _SearchState,
    p: frozenset[int],
    w: frozenset[int],
    r: list[int],
    x: list[int],
) -> None:
    state.nodes += 1
    _maybe_record(config, state, p, w)

    adj_lower = local.adj_lower
    x_current = list(x)
    for idx, v_star in enumerate(r):
        # PMBC-OL* candidate skip: v_star would be the (|W|+1)-th lower
        # vertex of anything recorded below.
        if config.lower_bound_at_least is not None:
            if config.lower_bound_at_least(v_star, len(w) + 1) <= state.best_size:
                state.skip_suffix += 1
                x_current.append(v_star)
                continue

        p_new = p & adj_lower[v_star]
        if config.upper_bound_at_most is not None:
            limit = len(p_new)
            p_new = frozenset(
                u
                for u in p_new
                if u == config.protected_upper
                or config.upper_bound_at_most(u, limit) > state.best_size
            )
            state.drop_prefix += limit - len(p_new)
        if len(p_new) < config.tau_p:
            state.skip_tau += 1
            x_current.append(v_star)
            continue

        w_new = set(w)
        w_new.add(v_star)
        r_new: list[int] = []
        p_size = len(p_new)
        for v in r[idx + 1 :]:
            overlap = len(p_new & adj_lower[v])
            if overlap == p_size:
                w_new.add(v)  # free vertex: adjacent to all of P'
            elif overlap >= config.tau_p:
                r_new.append(v)

        if config.max_w is not None and len(w_new) > config.max_w:
            state.prune_shape += 1
            x_current.append(v_star)
            continue

        dominated = False
        x_new: list[int] = []
        for v in x_current:
            overlap = len(p_new & adj_lower[v])
            if overlap == p_size:
                dominated = True
                if config.prune_non_maximal:
                    break
            if overlap >= config.tau_p:
                x_new.append(v)
        if config.prune_non_maximal and dominated:
            state.prune_dominated += 1
            x_current.append(v_star)
            continue

        max_possible_p = len(p_new)
        if config.max_p is not None:
            max_possible_p = min(max_possible_p, config.max_p)
        max_possible_w = len(w_new) + len(r_new)
        if config.max_w is not None:
            max_possible_w = min(max_possible_w, config.max_w)
        can_improve = (
            max_possible_p >= config.tau_p
            and max_possible_w >= config.tau_w
            and config.objective.bound(max_possible_p, max_possible_w)
            > state.best_size
        )
        if can_improve:
            _recurse(
                local, config, state, p_new, frozenset(w_new), r_new, x_new
            )
        else:
            state.prune_bound += 1
        x_current.append(v_star)


def _maybe_record(
    config: BranchBoundConfig,
    state: _SearchState,
    p: frozenset[int],
    w: frozenset[int],
) -> None:
    if len(p) < config.tau_p or len(w) < config.tau_w:
        return
    if config.max_p is not None and len(p) > config.max_p:
        return
    if config.max_w is not None and len(w) > config.max_w:
        return
    score = config.objective.score(len(p), len(w))
    if score > state.best_size:
        state.best_upper = p
        state.best_lower = w
        state.best_size = score
