"""Per-layer metrics from the traced run's spans and the client's records.

A layer's self time is its span minus the part of it covered by child
spans (same thread) or, for the service, by the worker-side spans of
the same request and the queue wait the service itself reports.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

#: Spans that start a request's work on a service worker thread.
WORKER_ROOTS = ("index.walk", "exec.run", "online.query")
BACKENDS = ("index", "engine", "online")


def _med(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(trace: dict, recs) -> dict[str, float]:
    """Every per-layer metric of the traced phase (units in run.PER_LAYER)."""
    spans = trace["spans"]
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1] in by_id:
            child_time[span[1]] += span[5] - span[4]
    by_rid: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for span in spans:
        by_rid[span[2]][span[3]].append(span)

    def dur(span) -> float:
        return span[5] - span[4]

    def self_ms(span) -> float:
        return (dur(span) - child_time[span[0]]) * 1e3

    def named(name):
        return [s for s in spans if s[3] == name]

    client = {r.rid: r for r in recs if r.outcome == "ok"}
    server_self, residual, covered_wall, service_self, queue_wait = [], 0.0, 0.0, [], []
    backend_count: dict[str, int] = defaultdict(int)
    shared = answered = 0
    update_self, repair, patch, cascade, invalidated = [], [], [], [], []
    for rid, rec in client.items():
        layers = by_rid.get(rid)
        handler = layers and layers.get("server.handler")
        if not handler:
            continue
        wall = rec.wall
        covered_wall += wall
        residual += max(0.0, wall - dur(handler[0]))
        for kind in ("service.query", "service.batch", "service.update"):
            for span in layers.get(kind, ()):
                server_self.append((dur(handler[0]) - dur(span)) * 1e3)
                if kind == "service.update":
                    update_self.append(self_ms(span))
                    continue
                meta = span[6] or {}
                queue = meta.get("queue_s", 0.0)
                queue_wait.append(queue * 1e3)
                worker = sum(dur(s) for name in WORKER_ROOTS for s in layers.get(name, ()))
                service_self.append(max(0.0, dur(span) - queue - worker) * 1e3)
                answered += 1
                shared += bool(meta.get("shared"))
                backend_count[meta.get("backend")] += 1
        if rec.kind == "update":
            repair.append(sum(dur(s) for s in layers.get("corenum.repair", ())) * 1e3)
            patch.append(sum(dur(s) for s in layers.get("dynadj.patch", ())) * 1e3)
            cascade.append(sum((s[6] or {}).get("cascade", 0) for s in layers.get("corenum.repair", ())))
            invalidated.append(sum((s[6] or {}).get("keys", 0) for s in layers.get("engine.invalidate", ())))

    extracts = named("twohop.extract")
    search_by_rid: dict[str, float] = defaultdict(float)
    for span in named("search"):
        search_by_rid[span[2]] += self_ms(span)
    engine_self = [self_ms(s) for s in named("engine.query")]
    queries_answered = sum(
        len(r.item) if r.kind == "batch" else 1 for r in client.values() if r.kind != "update"
    )
    summaries = trace["summaries"]
    computed = sum(s[3] for s in summaries) or 1
    reduce_calls = len(named("search.reduce"))
    cache = trace["engine_cache"]
    lookups = cache["hits"] + cache["misses"]

    def setup(name):
        return sum(dur(s) for s in named(name))

    return {
        "server.self_ms": _med(server_self),
        "server.wall_share": (sum(server_self) / 1e3) / covered_wall if covered_wall else 0.0,
        "service.queue_wait_ms": _med(queue_wait),
        "service.self_ms": _med(service_self),
        "service.shared_frac": shared / answered if answered else 0.0,
        **{
            f"service.backend_share.{b}": backend_count[b] / answered if answered else 0.0
            for b in BACKENDS
        },
        "engine.cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "engine.self_ms": _med(engine_self),
        "index.walk_ms": _med(dur(s) * 1e3 for s in named("index.walk")),
        "twohop.extract_ms": _med(dur(s) * 1e3 for s in extracts),
        "twohop.vertices": _mean((s[6] or {}).get("vertices", 0) for s in extracts),
        "search.self_ms": _med(search_by_rid.values()),
        "search.nodes": sum(s[1] for s in summaries) / computed,
        "search.rounds": sum(s[2] for s in summaries) / computed,
        "batch.extractions_per_query": len(extracts) / queries_answered if queries_answered else 0.0,
        "batch.reduce_reuse": trace["reduce_reuses"] / reduce_calls if reduce_calls else 0.0,
        "corenum.repair_ms": _med(repair),
        "corenum.cascade_vertices": _mean(cascade),
        "dynadj.patch_ms": _med(patch),
        "dynadj.repacks": float(trace["dynadj_repacks"]),
        "service.update_self_ms": _med(update_self),
        "service.invalidations": _mean(invalidated),
        "setup.graph_load_s": setup("setup.graph_load"),
        "setup.bounds_s": setup("setup.bounds"),
        "setup.pack_s": setup("setup.pack"),
        "setup.index_build_s": setup("setup.index_build"),
        "trace.residual_frac": residual / covered_wall if covered_wall else 0.0,
    }
