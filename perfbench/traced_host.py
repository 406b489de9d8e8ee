"""Run the ``pmbc`` CLI with span recorders around each layer's entry points.

Usage::

    python perfbench/traced_host.py SPANS.json serve EDGES [--index IDX] --port 0
    python perfbench/traced_host.py SPANS.json build EDGES -o IDX

The recorders live here, not in the program: each wraps a public entry
point of a ``repro`` module, at the site it is called through (a
function imported by name into another module is wrapped in that
module).  A span carries a request id, its parent span, a name, a start
and an end (``time.perf_counter``, the clock the load generator uses)
plus a few counts read off the call's arguments or result.  Spans stay
in memory and are written to ``SPANS.json`` when the CLI returns, which
for ``serve`` is after the interrupt that stops the server.

The request id is the client's ``X-Bench-Id`` header on the front-end
thread, and the active search trace's id (the client sends the same id
as ``trace_id``) on the service's worker threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.cli as cli  # noqa: E402
import repro.core.engine as engine_mod  # noqa: E402
import repro.core.online as online_mod  # noqa: E402
import repro.corenum.incremental as incremental_mod  # noqa: E402
import repro.exec.executor as executor_mod  # noqa: E402
import repro.kernel.batch as batch_mod  # noqa: E402
import repro.kernel.dynadj as dynadj_mod  # noqa: E402
import repro.kernel.progressive as progressive_mod  # noqa: E402
import repro.serve.server as server_mod  # noqa: E402
import repro.serve.service as service_mod  # noqa: E402
from repro.obs.trace import current_trace  # noqa: E402


class Recorder:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.summaries: list[tuple] = []
        self.engines: list = []
        self.dynadjs: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request_id(self) -> str | None:
        rid = getattr(self._local, "rid", None)
        return rid if rid is not None else current_trace().trace_id

    def wrap(self, owner, attr: str, name: str, counts=None, rid_of=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``counts(args, kwargs, result)`` returns a dict of numbers kept
        on the span; ``rid_of(args)`` names the request on entry (it is
        then the thread's request id until the call returns).
        """
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            outer_rid = getattr(self._local, "rid", None)
            if rid_of is not None:
                self._local.rid = rid_of(args)
            rid = self.request_id()
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = inner(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = counts(args, kwargs, result) if counts else None
                if rid_of is not None:
                    self._local.rid = outer_rid
                with self._lock:
                    self.spans.append([span_id, parent, rid, name, start, end, extra])

        setattr(owner, attr, wrapper)

    def capture(self, owner, sink: list) -> None:
        """Keep every instance ``owner`` constructs (for end-of-run counters)."""
        inner = owner.__init__

        @functools.wraps(inner)
        def init(obj, *args, **kwargs):
            inner(obj, *args, **kwargs)
            sink.append(obj)

        owner.__init__ = init

    def dump(self, path: Path) -> None:
        hits = sum(e.cache_hits for e in self.engines)
        misses = sum(e.cache_misses for e in self.engines)
        payload = {
            "spans": self.spans,
            "summaries": self.summaries,
            "engine_cache": {"hits": hits, "misses": misses},
            "dynadj_repacks": sum(d.repack_count for d in self.dynadjs),
            "reduce_reuses": batch_mod.reduce_reuse_count(),
        }
        path.write_text(json.dumps(payload))


def _result_meta(args, kwargs, result):
    if result is None:
        return None
    return {
        "queue_s": result.queue_seconds,
        "backend": result.backend,
        "shared": getattr(result, "shared", False),
    }


def _local_size(args, kwargs, result):
    if result is None:
        return None
    return {"vertices": result.num_upper + result.num_lower}


def _cascade(args, kwargs, result):
    return None if result is None else {"cascade": result.cascade}


def _affected(args, kwargs, result):
    affected = args[2] if len(args) > 2 else kwargs.get("affected")
    return {"keys": -1 if affected is None else len(affected)}


def install(rec: Recorder) -> None:
    """Wrap the entry points of every layer the benchmark attributes."""
    handler = server_mod.PMBCRequestHandler
    header_rid = lambda args: args[0].headers.get("X-Bench-Id")  # noqa: E731
    rec.wrap(handler, "do_GET", "server.handler", rid_of=header_rid)
    rec.wrap(handler, "do_POST", "server.handler", rid_of=header_rid)

    service = service_mod.PMBCService
    rec.wrap(service, "query", "service.query", counts=_result_meta)
    rec.wrap(service, "query_batch", "service.batch", counts=_result_meta)
    rec.wrap(service, "update_batch", "service.update")
    rec.wrap(service_mod, "pmbc_index_query", "index.walk")
    rec.wrap(service_mod, "pmbc_online_star", "online.query")
    rec.wrap(executor_mod.Executor, "run", "exec.run")

    engine = engine_mod.PMBCQueryEngine
    rec.capture(engine, rec.engines)
    rec.wrap(engine, "query", "engine.query")
    rec.wrap(engine, "query_batch", "engine.query")
    rec.wrap(engine, "update_graph", "engine.invalidate", counts=_affected)

    rec.wrap(online_mod, "two_hop_packed", "twohop.extract", counts=_local_size)
    rec.wrap(online_mod, "two_hop_subgraph", "twohop.extract", counts=_local_size)
    rec.wrap(online_mod, "greedy_biclique", "search")
    rec.wrap(online_mod, "maximum_biclique_local", "search")
    rec.wrap(progressive_mod, "cached_reduce", "search.reduce")

    bounds = incremental_mod.IncrementalCoreBounds
    rec.wrap(bounds, "insert_edge", "corenum.repair", counts=_cascade)
    rec.wrap(bounds, "delete_edge", "corenum.repair", counts=_cascade)
    dynadj = dynadj_mod.DynamicPackedAdjacency
    rec.capture(dynadj, rec.dynadjs)
    rec.wrap(dynadj, "__init__", "setup.pack")
    for attr in ("insert_edge", "delete_edge", "snapshot"):
        rec.wrap(dynadj, attr, "dynadj.patch")

    rec.wrap(cli, "read_edge_list", "setup.graph_load")
    rec.wrap(cli, "build_index_star", "setup.index_build")
    rec.wrap(engine_mod, "compute_bounds", "setup.bounds")

    publish = service_mod.publish_trace

    @functools.wraps(publish)
    def publish_and_keep(summary, metrics):
        counters = summary.get("counters") or {}
        with rec._lock:
            rec.summaries.append(
                (
                    summary.get("trace_id"),
                    counters.get("bb_nodes", 0),
                    counters.get("progressive_rounds", 0),
                    summary.get("meta", {}).get("batch_size", 1),
                )
            )
        return publish(summary, metrics)

    service_mod.publish_trace = publish_and_keep


def main(argv: list[str]) -> int:
    spans_out = Path(argv[0])
    rec = Recorder()
    install(rec)
    try:
        return cli.main(argv[1:])
    finally:
        rec.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
