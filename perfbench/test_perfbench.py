"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench -q``).

Short mode runs every workload for a few seconds, traced and untraced,
and checks that each metric named in BENCHMARK.json is emitted with its
unit and that the correctness gate passes.  The gate's negative
controls plant wrong answers; the fault test kills the server mid-run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
from loadgen import Rec  # noqa: E402
from workloads import write_graph  # noqa: E402

from repro.core.online import pmbc_online_star  # noqa: E402
from repro.core.query import QueryRequest  # noqa: E402
from repro.graph.bipartite import Side  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS + run.UNDECLARED)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "4", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    key = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _declared()[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_declared_workloads_match_the_runner():
    assert [w["name"] for w in _declared()["workloads"]] == list(run.WORKLOADS)


def _static_case(tmp_path):
    __, graph = write_graph("zipf_indexed", 3, tmp_path)
    hub = max(range(graph.num_upper), key=lambda u: graph.degree(Side.UPPER, u))
    query = ("upper", hub, 2, 2)
    best = pmbc_online_star(graph, QueryRequest(Side.UPPER, hub, 2, 2), kernel="set")
    answer = (
        best.num_edges,
        tuple(graph.label(Side.UPPER, u) for u in sorted(best.upper)),
        tuple(graph.label(Side.LOWER, v) for v in sorted(best.lower)),
    )
    rec = Rec("query", "q0", query, 0.0, outcome="ok", answer=answer)
    return graph, rec, best


def test_gate_accepts_a_right_answer(tmp_path):
    graph, rec, __ = _static_case(tmp_path)
    assert gate.gate_static(graph, [rec]) == []


def test_gate_rejects_a_smaller_answer(tmp_path):
    graph, rec, best = _static_case(tmp_path)
    upper = sorted(best.upper)
    keep = [u for u in upper if u != rec.item[1]][: len(upper) - 2] + [rec.item[1]]
    rec.answer = (
        len(keep) * len(best.lower),
        tuple(graph.label(Side.UPPER, u) for u in keep),
        rec.answer[2],
    )
    assert len(keep) < len(upper)
    assert gate.gate_static(graph, [rec])


def test_gate_rejects_a_non_biclique(tmp_path):
    graph, rec, best = _static_case(tmp_path)
    outsider = next(
        v for v in range(graph.num_lower) if not graph.has_edge(rec.item[1], v)
    )
    lower = rec.answer[2] + (graph.label(Side.LOWER, outsider),)
    rec.answer = (len(rec.answer[1]) * len(lower), rec.answer[1], lower)
    assert gate.gate_static(graph, [rec])


def test_gate_rejects_ids_in_place_of_labels(tmp_path):
    graph, rec, best = _static_case(tmp_path)
    rec.answer = (
        rec.answer[0],
        tuple(str(u) for u in sorted(best.upper)),
        tuple(str(v) for v in sorted(best.lower)),
    )
    assert gate.gate_static(graph, [rec])


def test_churn_gate_rejects_a_wrong_update_count(tmp_path):
    __, graph = write_graph("churn_updates", 3, tmp_path)
    u = 0
    v = next(v for v in range(graph.num_lower) if not graph.has_edge(u, v))
    update = Rec("update", "u0", [("insert", u, v)], 0.0, outcome="ok", answer=(1, 0))
    assert gate.gate_churn(graph, [update], []) == []
    update.answer = (0, 1)
    assert gate.gate_churn(graph, [update], [])


def test_killed_server_shows_up_as_failures(tmp_path):
    edges, graph = write_graph("churn_updates", 4, tmp_path)
    server, __, __ = run.deploy("churn_updates", edges, tmp_path, "kill", traced=False)
    killer = threading.Timer(1.0, server.kill)
    killer.start()
    start = time.perf_counter()
    try:
        phase = run.drive_churn(server, graph, 4, 4.0)
    finally:
        killer.cancel()
        server.stop()
    assert time.perf_counter() - start < 60
    attempted, failed = run.counts([phase])
    assert failed > 0 and attempted > failed
    assert {r.outcome for r in phase.recs} - {"ok"} <= {"transport", "timeout"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "zipf_indexed", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
