"""The correctness gate: every answered request is checked after the run.

Reference path: the ``kernel="set"`` progressive-bounding search of
PMBC-OL with no index, computed here in the benchmark process on the
two-hop subgraph of the graph state the answer was given on.  On a
static graph it runs as PMBC-OL* with (α,β)-core bounds the benchmark
computes itself; under churn it runs without bounds on the graph
replayed to the state in question (the server maintains its bounds
incrementally, and the reference must not share them).  The server's
answer, once checked to be a valid biclique, is the search's starting
incumbent, so the search either finds a larger biclique or proves
there is none.  Lemma 1 equates answer *sizes*, not vertex sets, so
the gate compares edge counts with the reference and checks the
answer's structure independently: it names vertices by the edge file's
labels, contains the query vertex, meets both floors, reports
``|U|·|L|`` edges and is complete in the graph.  Labels never change
under churn (updates only rewire edges between existing vertices).

A read served while updates were in flight may reflect any graph state
between the last update acknowledged before it was sent and the last
update sent before its reply arrived; it passes when it is correct for
one of those states.
"""

from __future__ import annotations

from repro.corenum.bounds import compute_bounds
from repro.graph.bipartite import BipartiteGraph, Side
from repro.graph.subgraph import two_hop_subgraph
from repro.mbc.progressive import SearchOptions, maximum_biclique_local


def to_ids(graph: BipartiteGraph, answer):
    """``answer`` with its vertex labels resolved to ids (None stays None).

    ``answer`` is ``(edges, upper labels, lower labels)``; a name that is
    not a label of the edge file raises ``KeyError``.
    """
    if answer is None:
        return None
    edges, upper, lower = answer
    return (
        edges,
        tuple(graph.vertex_by_label(Side.UPPER, x) for x in upper),
        tuple(graph.vertex_by_label(Side.LOWER, x) for x in lower),
    )


def checked_ids(graph: BipartiteGraph, adj_upper, query, answer):
    """``(answer in ids, None)`` if ``answer`` is valid, else ``(None, why)``.

    ``adj_upper[u]`` is the neighbour set of upper vertex ``u`` in the
    graph state the answer is checked against.
    """
    try:
        ids = to_ids(graph, answer)
    except KeyError as exc:
        return None, f"names vertex {exc.args[0]!r}, not a label of the edge file"
    error = structure_error(adj_upper, query, ids)
    return (None, error) if error else (ids, None)


def structure_error(adj_upper, query, answer) -> str | None:
    """Why ``answer`` is not a valid biclique for ``query`` (None if it is).

    ``answer`` is ``(edges, upper ids, lower ids)`` or None.
    """
    if answer is None:
        return None
    side, vertex, tau_u, tau_l = query
    edges, upper, lower = answer
    us, ls = set(upper), set(lower)
    if len(us) != len(upper) or len(ls) != len(lower):
        return "repeated vertex"
    if len(us) * len(ls) != edges:
        return f"reports {edges} edges for a {len(us)}x{len(ls)} shape"
    if vertex not in (us if side == "upper" else ls):
        return "query vertex missing"
    if len(us) < tau_u or len(ls) < tau_l:
        return "floors not met"
    for u in us:
        if u >= len(adj_upper) or not ls <= adj_upper[u]:
            return "not a complete biclique"
    return None


def _answer_size(answer) -> int:
    return 0 if answer is None else answer[0]


def _search(local, tau_u: int, tau_l: int, seed, bounds):
    """Shape ``(|U|, |L|)`` of the set-kernel PMBC-OL* maximum (None if none).

    ``seed`` is a valid answer ``(edges, upper ids, lower ids)`` used as
    the starting incumbent; the greedy seeding of ``pmbc_online`` is skipped,
    since it only supplies an incumbent too.
    """
    upper_first = local.upper_side is Side.UPPER
    tau_p, tau_w = (tau_u, tau_l) if upper_first else (tau_l, tau_u)
    start = None
    if seed is not None:
        own, other = (seed[1], seed[2]) if upper_first else (seed[2], seed[1])
        own_index, other_index = local.upper_index(), local.lower_index()
        start = (
            frozenset(own_index[x] for x in own),
            frozenset(other_index[x] for x in other),
        )
    found = maximum_biclique_local(
        local, tau_p, tau_w, start, SearchOptions(bounds=bounds, kernel="set")
    )
    if found is None:
        return None
    own, other = len(found[0]), len(found[1])
    return (own, other) if upper_first else (other, own)


class StaticGate:
    """Reference answers on a graph that does not change during the run.

    Queries are grouped by vertex so each two-hop subgraph is extracted
    once.  Within a group, floors are taken loosest first: when the
    maximum under looser floors already meets tighter ones, it is also
    the maximum under them (the feasible set only shrank), and when no
    biclique meets looser floors none meets tighter ones.  Every other
    case runs the reference search, seeded with the server's answer
    (already checked to be a valid biclique) as the incumbent, so the
    search only has to find a larger one or prove there is none.
    """

    def __init__(self, graph: BipartiteGraph) -> None:
        self.graph = graph
        self.bounds = compute_bounds(graph)
        self.adj_upper = [
            set(graph.neighbors(Side.UPPER, u)) for u in range(graph.num_upper)
        ]

    def reference_sizes(self, seeds: dict) -> dict:
        """Reference edge counts for every query key of ``seeds``.

        ``seeds`` maps a query tuple to the largest structurally valid
        answer (in ids) the server gave for it, or None.
        """
        groups: dict[tuple, list] = {}
        for query in seeds:
            groups.setdefault(query[:2], []).append(query)
        sizes = {}
        for (side, vertex), queries in groups.items():
            local = two_hop_subgraph(self.graph, Side(side), vertex)
            solved: list[tuple] = []
            for query in sorted(queries, key=lambda q: (q[2] + q[3], q)):
                tau_u, tau_l = query[2], query[3]
                shape = next(
                    (
                        best
                        for tu, tl, best in solved
                        if tu <= tau_u
                        and tl <= tau_l
                        and (best is None or (best[0] >= tau_u and best[1] >= tau_l))
                    ),
                    False,
                )
                if shape is False:
                    shape = _search(local, tau_u, tau_l, seeds[query], self.bounds)
                    solved.append((tau_u, tau_l, shape))
                sizes[query] = 0 if shape is None else shape[0] * shape[1]
        return sizes


def gate_static(graph: BipartiteGraph, recs) -> list[tuple]:
    """Check answered query/batch records; returns ``(rid, why)`` failures."""
    gate = StaticGate(graph)
    failures = []
    answered = []
    seeds: dict[tuple, object] = {}
    for rec in recs:
        if rec.outcome != "ok":
            continue
        pairs = [(rec.item, rec.answer)] if rec.kind == "query" else zip(rec.item, rec.answer)
        for query, answer in pairs:
            ids, error = checked_ids(graph, gate.adj_upper, query, answer)
            if error:
                failures.append((rec.rid, f"{query}: {error}"))
                continue
            answered.append((rec.rid, query, ids))
            if _answer_size(ids) >= _answer_size(seeds.get(query)):
                seeds[query] = ids
    sizes = gate.reference_sizes(seeds)
    for rid, query, answer in answered:
        if _answer_size(answer) != sizes[query]:
            failures.append(
                (rid, f"{query}: size {_answer_size(answer)} != reference {sizes[query]}")
            )
    return failures


def _affected(adj_upper, adj_lower, u: int, v: int) -> set:
    """Vertices whose two-hop subgraph an update to edge (u, v) changes."""
    keys = {("upper", u), ("lower", v)}
    keys.update(("upper", x) for x in adj_lower[v])
    keys.update(("lower", y) for y in adj_upper[u])
    return keys


def gate_churn(graph: BipartiteGraph, updates, reads) -> list[tuple]:
    """Replay acknowledged updates in order; check every read and update.

    ``updates`` are the update records in send order; each read record
    carries ``window = (first, last)``, the graph states it
    may have been answered on (state ``k`` = after ``k`` update
    batches).
    """
    adj_upper = [set(graph.neighbors(Side.UPPER, u)) for u in range(graph.num_upper)]
    adj_lower = [set(graph.neighbors(Side.LOWER, v)) for v in range(graph.num_lower)]
    version: dict[tuple, int] = {}
    sizes: dict[tuple, int] = {}
    failures = []
    pending = sorted(
        (r for r in reads if r.outcome == "ok"), key=lambda r: r.window
    )
    active: list = []
    cursor = 0
    snapshot = None
    for state in range(len(updates) + 1):
        while cursor < len(pending) and pending[cursor].window[0] <= state:
            active.append(pending[cursor])
            cursor += 1
        still = []
        for rec in active:
            side, vertex, tau_u, tau_l = rec.item
            key = (*rec.item, version.get((side, vertex), 0))
            ids, error = checked_ids(graph, adj_upper, rec.item, rec.answer)
            valid = error is None
            if valid and key not in sizes:
                if snapshot is None:
                    snapshot = BipartiteGraph(
                        [sorted(ns) for ns in adj_upper], num_lower=len(adj_lower)
                    )
                local = two_hop_subgraph(snapshot, Side(side), vertex)
                shape = _search(local, tau_u, tau_l, ids, None)
                sizes[key] = 0 if shape is None else shape[0] * shape[1]
            if valid and _answer_size(ids) == sizes[key]:
                continue
            if rec.window[1] <= state:
                why = error or f"size {_answer_size(ids)} != reference {sizes[key]}"
                failures.append(
                    (rec.rid, f"{rec.item}: wrong for every state it could see ({why})")
                )
            else:
                still.append(rec)
        active = still
        if state == len(updates):
            break
        rec = updates[state]
        if rec.outcome != "ok":
            # The server may or may not have applied a failed batch; the
            # states after it are unknown, so later reads cannot be checked.
            unchecked = active + pending[cursor:]
            failures.extend((r.rid, "read after an unacknowledged update") for r in unchecked)
            break
        final = {}
        for action, u, v in rec.item:
            final[(u, v)] = action
        applied = 0
        for (u, v), action in final.items():
            present = v in adj_upper[u]
            if (action == "insert") == present:
                continue
            applied += 1
            for key in _affected(adj_upper, adj_lower, u, v):
                version[key] = version.get(key, 0) + 1
            if action == "insert":
                adj_upper[u].add(v)
                adj_lower[v].add(u)
            else:
                adj_upper[u].discard(v)
                adj_lower[v].discard(u)
            for key in _affected(adj_upper, adj_lower, u, v):
                version[key] = version.get(key, 0) + 1
        if applied:
            snapshot = None
        if rec.answer != (applied, len(rec.item) - applied):
            failures.append((rec.rid, f"applied/noops {rec.answer} != {applied}"))
    return failures
