"""The PMBC serving benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload zipf_indexed --seed 1 --seconds 20 --trace 0

For the chosen workload it generates a seeded graph and request stream,
writes the graph (and, for ``zipf_indexed``, an index built with
``pmbc build``) to files, launches the stock ``pmbc serve`` stack on
them as a subprocess, drives it over HTTP from this process with at
most two connections, checks every answer against the reference path
(see ``gate.py``) and prints one JSON result line last on stdout.

``--trace 0`` reports the end-to-end metrics from an untraced run.
``--trace 1`` reports the per-layer metrics: it drives the untraced
stack for most of the time (the ``e2e.*`` figures and the rate search)
and the same stack under the span recorders of ``traced_host.py`` for
the rest, with the same inputs.  See README.md beside this file for why
each workload exists, where its rates and sizes come from, and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("zipf_indexed", "sweep_batch", "churn_updates")
#: Runnable but not declared in BENCHMARK.json: reads beside the updates
#: of ``churn_updates``.  Its reads are answered wrongly after the first
#: update (README.md, "Known defects"), and the benchmark declares only
#: workloads on which no operation fails.
UNDECLARED = ("churn_mixed",)

#: Fixed nominal arrival rates (requests/s) of the open-loop streams,
#: each about a fifth to a third of the capacity measured on a quiet
#: 2-vCPU host: 400-600 req/s for one back-to-back connection on the
#: zipf_indexed graph, and 69 reads/s beside saturating updates on the
#: churn graph (README.md, "Rates and sizes").
ZIPF_RATE = 100.0
CHURN_READ_RATE = 20.0
#: Rate-search step between rungs.
LADDER_STEP = 1.1
#: p99 latency limit (ms) a rate must meet to count as sustainable.
LATENCY_LIMIT_MS = 100.0
#: Samples per rung and per p99 window, so each p99 has at least ten
#: samples beyond it.
RUNG_SAMPLES = 1000
#: Server start-ups per run; setup_s is their median.  More where one
#: start-up is cheap.  The last one is measured.
SETUPS = {"zipf_indexed": 5, "sweep_batch": 5, "churn_updates": 9, "churn_mixed": 9}
#: Share of a traced run's time spent driving the untraced stack.
PLAIN_SHARE = 0.8
#: Seconds per window of a windowed rate.
RATE_WINDOW_S = 2.5

END_TO_END = {
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "rss_mb": "MiB",
}
PER_LAYER = {
    "server.self_ms": "ms",
    "server.wall_share": "ratio",
    "service.queue_wait_ms": "ms",
    "service.self_ms": "ms",
    "service.shared_frac": "ratio",
    "service.backend_share.index": "ratio",
    "service.backend_share.engine": "ratio",
    "service.backend_share.online": "ratio",
    "engine.cache_hit_rate": "ratio",
    "engine.self_ms": "ms",
    "index.walk_ms": "ms",
    "twohop.extract_ms": "ms",
    "twohop.vertices": "count",
    "search.self_ms": "ms",
    "search.nodes": "count",
    "search.rounds": "count",
    "batch.extractions_per_query": "ratio",
    "batch.reduce_reuse": "ratio",
    "corenum.repair_ms": "ms",
    "corenum.cascade_vertices": "count",
    "dynadj.patch_ms": "ms",
    "dynadj.repacks": "count",
    "service.update_self_ms": "ms",
    "service.invalidations": "count",
    "setup.graph_load_s": "s",
    "setup.bounds_s": "s",
    "setup.pack_s": "s",
    "setup.index_build_s": "s",
    "loadgen.lag_p99_ms": "ms",
    "trace.residual_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "e2e.latency_p50_ms": "ms",
    "e2e.latency_p99_ms": "ms",
    "e2e.throughput_per_s": "1/s",
    "e2e.setup_wall_s": "s",
    "e2e.sustainable_qps": "req/s",
    "e2e.batch_qps": "queries/s",
    "e2e.update_per_s": "updates/s",
    "e2e.update_p99_ms": "ms",
    "e2e.failed_frac": "ratio",
}


def quantile(values, q: float) -> float:
    """The ``q`` quantile (nearest rank) of ``values``; 0.0 when empty."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, max(0, math.ceil(q * len(values)) - 1))]


def windowed_p99(latencies) -> float:
    """Median of the p99s of consecutive windows of ``RUNG_SAMPLES`` samples.

    One stall burst then moves one window's p99, not the run's.  With
    fewer than two windows' worth of samples it is the plain p99.
    """
    windows = max(1, len(latencies) // RUNG_SAMPLES)
    size = len(latencies) // windows
    return median(
        quantile(latencies[i * size:(i + 1) * size], 0.99) for i in range(windows)
    )


def cpu_steal_s() -> float:
    """Seconds of CPU the hypervisor took from this machine so far (Linux)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def windowed_rate(recs, start: float, weight) -> float:
    """Median, over equal windows from ``start`` to the last reply, of the
    ``weight`` of the ``ok`` replies in a window per second.

    Windows are about ``RATE_WINDOW_S`` long.  Host CPU steal comes in
    bursts; a burst then lowers one window's rate, not the run's.
    """
    end = max(r.done for r in recs)
    windows = max(1, round((end - start) / RATE_WINDOW_S))
    width = (end - start) / windows
    totals = [0.0] * windows
    for rec in recs:
        if rec.outcome == "ok":
            totals[min(windows - 1, int((rec.done - start) / width))] += weight(rec)
    return median(totals) / width


# ---------------------------------------------------------------------------
# traffic


class Phase:
    """The client-side outcome of driving one deployment."""

    def __init__(self) -> None:
        self.recs = []          # every request sent (or due and dropped)
        self.latency = []       # seconds, the workload's headline latency
        self.throughput = 0.0   # the workload's headline rate
        self.cpu_s = 0.0        # server CPU seconds over the costed traffic
        self.ops = 0            # operations completed in that traffic
        self.detail = {}        # workload-specific end-to-end figures


def _rung(conns, items, rate: float, prefix: str, send):
    """Send ``items`` open-loop at ``rate``; (records, achieved, p99 ms, passed).

    A rung passes when its p99 meets ``LATENCY_LIMIT_MS``, it achieved at
    least 95% of the offered rate and at most 1% of its requests failed.
    """
    from loadgen import open_loop, schedule

    start = time.perf_counter() + 0.02
    recs = schedule(items, rate, start, "query", prefix)
    span = len(items) / rate
    open_loop(conns, recs, send, hard_stop=start + 3 * span + 2)
    ok = sum(r.outcome == "ok" for r in recs)
    end = max((r.done for r in recs), default=start)
    achieved = ok / max(end - start, span)
    # A failed request misses any latency limit.
    p99 = quantile([r.latency if r.outcome == "ok" else math.inf for r in recs], 0.99) * 1e3
    passed = (
        p99 <= LATENCY_LIMIT_MS
        and achieved >= 0.95 * rate
        and len(recs) - ok <= 0.01 * len(recs)
    )
    return recs, achieved, p99, passed


def drive_zipf(server, graph, seed: int, seconds: float, mode: str = "gated") -> Phase:
    """Open-loop Zipf singles at the nominal rate, then saturation.

    ``mode`` ``"gated"`` (untraced runs): half the time goes to the
    nominal rate (the latency figures) and the rest to one connection
    sending back to back (the saturation rate: a second back-to-back
    connection adds little to what the server completes and half again
    to the spread between runs).  The server's CPU per query is taken
    over the saturation phase alone: at the nominal rate a query costs
    about 60% more CPU (the server wakes from idle for each), so a
    mixture of the two would move with how many queries saturation got
    through.

    ``"search"`` (the untraced part of a traced run): the nominal phase
    carries at least ``RUNG_SAMPLES`` requests, saturation takes 10% of
    the time, and the rest is the rate search for the sustainable rate:
    it starts at 80% of the saturation rate and climbs by
    ``LADDER_STEP`` until two rungs in a row fail (one failed rung can
    be a passing stall), or steps down until one passes.

    ``"nominal"`` (the traced part): the nominal rate only.
    """
    from loadgen import Conn, Rec, closed_loop, send_query
    from workloads import zipf_stream

    time_zero = time.perf_counter()
    phase = Phase()
    conns = [Conn(server.host, server.port) for __ in range(2)]
    stream = iter(zipf_stream(graph, 400_000, seed))
    if mode == "gated":
        nominal_n, saturate_s = int(ZIPF_RATE * seconds * 0.5), seconds * 0.5
    elif mode == "search":
        nominal_n, saturate_s = max(RUNG_SAMPLES, int(ZIPF_RATE * seconds * 0.4)), seconds * 0.1
    else:
        nominal_n, saturate_s = int(ZIPF_RATE * seconds), 0.0
    recs, achieved, p99, passed = _rung(
        conns, [next(stream) for __ in range(nominal_n)], ZIPF_RATE, "n", send_query
    )
    phase.recs += recs
    phase.latency = [r.latency for r in recs]
    rungs = [(ZIPF_RATE, achieved, p99, passed)]
    if mode == "nominal":
        return phase

    cpu_before = server.cpu_s()
    start = time.perf_counter()
    end = start + saturate_s
    counter = itertools.count()
    saturated = closed_loop(
        conns[0],
        lambda now: Rec("query", f"s{next(counter)}", next(stream), now),
        send_query,
        end,
    )
    phase.cpu_s = server.cpu_s() - cpu_before
    phase.ops = sum(r.outcome == "ok" for r in saturated)
    phase.recs += saturated
    phase.throughput = windowed_rate(saturated, start, lambda r: 1)
    phase.detail["saturation_qps"] = phase.throughput
    if mode == "gated":
        return phase

    ladder_end = time_zero + seconds
    rate, step, misses = 0.8 * phase.throughput, LADDER_STEP, 0
    while rate > ZIPF_RATE:
        n = max(RUNG_SAMPLES, int(rate))
        if time.perf_counter() + n / rate > ladder_end:
            break
        recs, achieved, p99, passed = _rung(
            conns, [next(stream) for __ in range(n)], rate, f"r{len(rungs)}-", send_query
        )
        phase.recs += recs
        rungs.append((rate, achieved, p99, passed))
        if len(rungs) == 2 and not passed:
            step = 1 / LADDER_STEP
        misses = 0 if passed else misses + 1
        if (step < 1 and passed) or misses == 2:
            break
        rate *= step
    phase.detail["sustainable_qps"] = sustainable(rungs)
    phase.detail["rungs"] = [[round(x, 2) for x in rung[:3]] for rung in rungs]
    return phase


def sustainable(rungs) -> float:
    """Highest achieved rate of a passing rung; 0.0 when none passed.

    ``rungs`` are ``(offered, achieved, p99 ms, passed)``.
    """
    return max((r[1] for r in rungs if r[3]), default=0.0)


def drive_sweep(server, graph, seed: int, seconds: float) -> Phase:
    """One analyst job: closed-loop ``/query_batch`` sweeps on one connection."""
    from loadgen import Conn, Rec, closed_loop, send_batch
    from workloads import sweep_batches

    phase = Phase()
    batches = iter(sweep_batches(graph, seed))
    counter = itertools.count()

    def next_rec(now):
        batch = next(batches, None)
        return None if batch is None else Rec("batch", f"b{next(counter)}", batch, now)

    cpu_before = server.cpu_s()
    start = time.perf_counter()
    recs = closed_loop(Conn(server.host, server.port), next_rec, send_batch, start + seconds)
    phase.cpu_s = server.cpu_s() - cpu_before
    phase.ops = sum(len(r.item) for r in recs if r.outcome == "ok")
    phase.recs = recs
    phase.latency = [r.latency for r in recs]
    phase.throughput = windowed_rate(recs, start, lambda r: len(r.item))
    phase.detail["batch_qps"] = phase.throughput
    return phase


def drive_churn(server, graph, seed: int, seconds: float, reads: bool = False) -> Phase:
    """Closed-loop edge updates on one connection.

    With ``reads`` (``churn_mixed``), open-loop Zipf reads run on the
    other connection and carry the headline latency; without, the
    headline latency is that of one ``POST /update``.
    """
    from loadgen import Conn, Rec, closed_loop, open_loop, schedule, send_query, send_update
    from workloads import update_batches, zipf_stream

    phase = Phase()
    # Enough updates for a fast server; the loop stops at the deadline.
    stream = iter(update_batches(graph, int(seconds * 400), seed))
    counter = itertools.count()
    progress = {"started": 0, "finished": 0}

    def next_update(now):
        batch = next(stream, None)
        if batch is None:
            return None
        progress["started"] += 1
        return Rec("update", f"u{next(counter)}", batch, now)

    def send_tracked(conn, rec):
        send_update(conn, rec)
        progress["finished"] += 1

    def send_read(conn, rec):
        first = progress["finished"]
        send_query(conn, rec)
        rec.window = (first, progress["started"])

    start = time.perf_counter() + 0.02
    items = zipf_stream(graph, int(CHURN_READ_RATE * seconds), seed) if reads else []
    queries = schedule(items, CHURN_READ_RATE, start, "query", "q")
    updates: list = []

    def run_updates():
        updates.extend(
            closed_loop(Conn(server.host, server.port), next_update, send_tracked, start + seconds)
        )

    cpu_before = server.cpu_s()
    writer = threading.Thread(target=run_updates, daemon=True)
    writer.start()
    open_loop([Conn(server.host, server.port)], queries, send_read, start + seconds + 10)
    writer.join()
    phase.cpu_s = server.cpu_s() - cpu_before
    phase.ops = sum(
        1 if r.kind == "query" else len(r.item) for r in updates + queries if r.outcome == "ok"
    )
    phase.recs = updates + queries
    phase.latency = [r.latency for r in queries] if reads else [r.wall for r in updates]
    phase.throughput = windowed_rate(updates, start, lambda r: len(r.item))
    phase.detail["update_per_s"] = phase.throughput
    phase.detail["update_p99_ms"] = quantile([r.wall for r in updates], 0.99) * 1e3
    return phase


# ---------------------------------------------------------------------------
# deployment


def deploy(workload: str, edges: Path, work: Path, tag: str, traced: bool):
    """Files on disk to ``/healthz`` ready; returns (server, seconds, spans).

    ``server.setup_cpu_s`` is the CPU time set-up took: the index build
    plus the server up to ready.
    """
    from stack import Server, cli_argv, run_build, traced_argv

    spans = (work / f"{tag}.serve.spans", work / f"{tag}.build.spans") if traced else None
    start = time.perf_counter()
    args = ["serve", str(edges), "--port", "0"]
    build_cpu = 0.0
    if workload == "zipf_indexed":
        index = work / f"{tag}.idx.bin"
        build = ["build", str(edges), "-o", str(index)]
        build_cpu = run_build(
            traced_argv(spans[1], *build) if traced else cli_argv(*build), work / f"{tag}.build.log"
        )
        args += ["--index", str(index)]
    server = Server(
        traced_argv(spans[0], *args) if traced else cli_argv(*args), work / f"{tag}.serve.log"
    )
    try:
        seconds = server.wait_ready(start)
        server.setup_cpu_s = build_cpu + server.cpu_s()
    except BaseException:
        server.kill()
        raise
    return server, seconds, spans


def measure(workload, server, graph, seed, seconds, zipf_mode="gated"):
    """Drive a deployed server for ``seconds``, read its peak RSS, stop it.

    ``zipf_mode`` selects the ``zipf_indexed`` traffic (see drive_zipf).
    """
    try:
        if workload == "zipf_indexed":
            phase = drive_zipf(server, graph, seed, seconds, zipf_mode)
        elif workload == "sweep_batch":
            phase = drive_sweep(server, graph, seed, seconds)
        else:
            phase = drive_churn(server, graph, seed, seconds, workload == "churn_mixed")
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return phase, rss


def check_answers(workload, graph, phase) -> list:
    from gate import gate_churn, gate_static

    if workload.startswith("churn_"):
        updates = [r for r in phase.recs if r.kind == "update"]
        reads = [r for r in phase.recs if r.kind == "query"]
        return gate_churn(graph, updates, reads)
    return gate_static(graph, phase.recs)


def counts(phases) -> tuple[int, int]:
    recs = [r for p in phases for r in p.recs]
    return len(recs), sum(r.outcome != "ok" for r in recs)


def gated_counts(workload, graph, phase) -> tuple[int, int, list]:
    """(attempted, failed, gate failures) of ``phase``; wrong answers fail."""
    found = check_answers(workload, graph, phase)
    rids = {rid for rid, __ in found}
    attempted, failed = counts([phase])
    failed += sum(1 for r in phase.recs if r.outcome == "ok" and r.rid in rids)
    return attempted, failed, found


def run_untraced(workload, seed, seconds, work):
    from workloads import write_graph

    edges, graph = write_graph(workload, seed, work)
    setups, walls = [], []
    for i in range(SETUPS[workload]):
        server, wall, __ = deploy(workload, edges, work, f"setup{i}", traced=False)
        setups.append(server.setup_cpu_s)
        walls.append(wall)
        if i < SETUPS[workload] - 1:
            server.stop()
    phase, rss = measure(workload, server, graph, seed, seconds)
    phase.detail.update(
        latency_p50_ms=quantile(phase.latency, 0.5) * 1e3,
        latency_p99_ms=windowed_p99(phase.latency) * 1e3,
        throughput_per_s=phase.throughput,
        setup_wall_s=median(walls),
    )
    metrics = {
        "cpu_ms_per_op": phase.cpu_s * 1e3 / max(phase.ops, 1),
        "setup_s": median(setups),
        "rss_mb": rss,
    }
    info = {"graph": graph, "samples": len(phase.latency), "setups": setups, "detail": phase.detail}
    return metrics, [phase], info


def run_traced(workload, seed, seconds, work):
    from layers import layer_metrics
    from workloads import write_graph

    edges, graph = write_graph(workload, seed, work)
    server, setup_wall, __ = deploy(workload, edges, work, "plain", traced=False)
    plain, __ = measure(workload, server, graph, seed, seconds * PLAIN_SHARE, "search")
    server, __, spans = deploy(workload, edges, work, "traced", traced=True)
    traced, __ = measure(workload, server, graph, seed, seconds * (1 - PLAIN_SHARE), "nominal")
    trace = json.loads(spans[0].read_text())
    metrics = layer_metrics(trace, traced.recs)
    if spans[1].exists():
        build = json.loads(spans[1].read_text())["spans"]
        metrics["setup.index_build_s"] = sum(s[5] - s[4] for s in build if s[3] == "setup.index_build")
    metrics["trace.overhead_frac"] = (
        quantile(traced.latency, 0.5) / quantile(plain.latency, 0.5) - 1.0
    )
    metrics["loadgen.lag_p99_ms"] = quantile([r.lag for r in plain.recs], 0.99) * 1e3
    metrics["e2e.latency_p50_ms"] = quantile(plain.latency, 0.5) * 1e3
    metrics["e2e.latency_p99_ms"] = windowed_p99(plain.latency) * 1e3
    metrics["e2e.throughput_per_s"] = plain.throughput
    metrics["e2e.setup_wall_s"] = setup_wall
    for name in ("sustainable_qps", "batch_qps", "update_per_s", "update_p99_ms"):
        metrics[f"e2e.{name}"] = plain.detail.get(name, 0.0)
    info = {"graph": graph, "samples": len(plain.latency), "setups": [], "detail": plain.detail}
    return metrics, [plain, traced], info


def provenance(workload, seed, seconds, trace, info) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    graph = info["graph"]
    return {
        "provenance": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "commit": commit,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "graph": {
                "upper": graph.num_upper,
                "lower": graph.num_lower,
                "edges": graph.num_edges,
            },
            "latency_samples": info["samples"],
            "setups_s": info["setups"],
            "cpu_steal_s": info["steal"],
            "detail": info["detail"],
        }
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + UNDECLARED, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # Servers are stopped with an interrupt.  A caller that runs this
    # benchmark in the background may have left SIGINT ignored, and an
    # ignored signal stays ignored in every child; a handled one does not.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    steal = cpu_steal_s()
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, phases, info = runner(args.workload, args.seed, args.seconds, work)
        info["steal"] = round(cpu_steal_s() - steal, 2)
        attempted = failed = 0
        failures = []
        for i, phase in enumerate(phases):
            tried, bad, found = gated_counts(args.workload, info["graph"], phase)
            if args.trace and i == 0:
                # The untraced part carries the e2e.* figures.
                metrics["e2e.failed_frac"] = bad / tried
            attempted += tried
            failed += bad
            failures += found
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for rid, why in failures[:20]:
        print(f"gate: {rid}: {why}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps(provenance(args.workload, args.seed, args.seconds, args.trace, info)))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
