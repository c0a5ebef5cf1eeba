"""The benchmark's own tests: declarations, names, spans, failure paths.

Run from the repository root::

    python -m pytest perfbench -q

Workloads run here at toy sizes; the real sizes are the dataclass
defaults in ``workloads.py``.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run

run.bootstrap()

import catalog  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "sim-search": workloads.SimSearchSizes(
        makalu_nodes=150, powerlaw_nodes=2000, n_objects=40,
        stream_s=20.0, powerlaw_ttl=5, check_sample=8, setup_repeats=2),
    "sim-churn-heal": workloads.ChurnSizes(
        n_nodes=120, duration=50.0, n_objects=20, probe_queries=4,
        fetch_probes=2, setup_repeats=2),
    "live-flood": workloads.LiveSizes(
        n_peers=20, n_keys=10, replication_ratio=0.1, flood_pass=5,
        min_floods=5, n_corpus=3, object_size=(1024, 4096), fetch_pass=2,
        setup_repeats=1),
}

DETERMINISTIC = ("search_success_rate", "messages_per_query", "queue_p99_s",
                 "availability")


def _run(workload: str, trace: bool, seed: int = 3):
    return workloads.RUNNERS[workload](seed, 0.0, trace, TINY[workload])


def test_benchmark_json_matches_catalog():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    fields = catalog.benchmark_json_fields()
    assert doc["end_to_end"] == fields["end_to_end"]
    assert doc["per_layer"] == fields["per_layer"]
    assert [w["name"] for w in doc["workloads"]] == list(catalog.WORKLOADS)
    assert sorted(workloads.RUNNERS) == sorted(catalog.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"])


def test_names_declared_once():
    for group in (catalog.GATED, catalog.REPORTED, catalog.PER_LAYER):
        names = [m.name for m in group]
        assert len(names) == len(set(names))
    reported = {m.name for m in catalog.REPORTED}
    assert {m.name for m in catalog.GATED} <= reported
    assert not reported & {m.name for m in catalog.PER_LAYER}
    for m in (*catalog.REPORTED, *catalog.PER_LAYER):
        assert m.help and m.better in ("lower", "higher")
        assert set(m.workloads) <= set(catalog.WORKLOADS)


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_emits_exactly_the_declared_names(workload):
    out = _run(workload, trace=False)
    assert out.correct, out.errors
    assert set(out.metrics) == {m.name for m in catalog.reported_for(workload)}
    assert out.attempted > 0 and out.failed == 0

    traced = _run(workload, trace=True)
    assert traced.correct, traced.errors
    assert set(traced.metrics) == {m.name for m in catalog.PER_LAYER}
    for m in catalog.PER_LAYER:
        # A declared layer of this workload must really have been measured
        # (flood() spans vanish by design once flood_queries' default path
        # stops calling it per query).
        if workload in m.workloads and not m.name.startswith(
                ("search.flood.", "search.flood_queries.self_s")):
            assert m.name not in traced.absent, m.name
    # The per-layer counts of a seed repeat exactly.
    again = _run(workload, trace=True)
    for m in catalog.PER_LAYER:
        if m.unit in ("count", "bytes"):
            assert traced.metrics[m.name] == again.metrics[m.name], m.name


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_deterministic_metrics_repeat_for_a_seed(workload):
    first, second = _run(workload, False), _run(workload, False)
    for name in DETERMINISTIC:
        if name in first.metrics:
            assert first.metrics[name] == second.metrics[name], name


def test_span_self_time_and_restore():
    mod = types.SimpleNamespace()

    def inner():
        sum(range(20000))

    def outer():
        mod.inner()
        mod.inner()

    mod.inner, mod.outer = inner, outer
    tracer = SpanRecorder("t")
    tracer.patch(mod, "inner", "inner")
    tracer.patch(mod, "outer", "outer")
    mod.outer()
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2 and summary["outer"]["calls"] == 1
    o = summary["outer"]
    assert o["self_s"] == pytest.approx(
        o["total_s"] - summary["inner"]["total_s"], abs=1e-9)
    assert [s.parent for s in tracer.spans] == [None, 0, 0]


def test_async_wrapper_counts_false_returns():
    class Node:
        async def settle(self, ok):
            await asyncio.sleep(0)
            return ok

    tracer = SpanRecorder("t")
    tracer.patch(Node, "settle", "settle",
                 on_result=workloads._count_settle_timeout)

    async def drive():
        node = Node()
        return [await node.settle(True), await node.settle(False)]

    assert asyncio.run(drive()) == [True, False]
    tracer.restore()
    assert "settle" in vars(Node) and tracer.counts == {
        "node.boot.settle.timeouts": 1}
    assert tracer.summary()["settle"]["calls"] == 2


def test_wrong_result_is_counted_and_fails_the_run():
    out = workloads.Outcome()
    assert out.attempt("boom", 4, lambda: 1 / 0) is None
    out.same("unit", (1, 2), (1, 3))
    assert (out.attempted, out.failed, out.correct) == (4, 4, False)
    assert len(out.errors) == 2


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
