"""Tests for the machine-readable benchmark pipeline (repro.obs.bench)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import bench
from repro.obs.bench_compare import _metrics, load_report

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"


def _tiny_report():
    return bench.run_bench(
        seed=1,
        warmup_ns=bench.DEFAULT_WARMUP_NS // 4,
        measure_ns=bench.DEFAULT_MEASURE_NS // 4,
        latency_duration_ns=bench.DEFAULT_LATENCY_NS // 5,
        revision="test",
    )


@pytest.fixture(scope="module")
def report():
    return _tiny_report()


def test_report_schema_and_content(report):
    assert report["schema"] == {"name": "repro-bench", "version": bench.BENCH_SCHEMA_VERSION}
    assert report["revision"] == "test"
    assert set(report["throughput"]) == {"Baseline", "PI"}
    for point in report["throughput"].values():
        assert point["throughput_gbps"] > 0
        assert 0 < point["tig"] <= 1
        assert point["exits_per_sec"]["total"] >= 0
        assert point["counters"]  # full registry snapshot present
        assert point["sim"]["events_fired"] > 0
    hybrid = report["hybrid"]
    assert hybrid["baseline"]["io_exits_per_sec"] > 0
    factor = hybrid["io_exit_reduction_factor"]
    assert factor is None or factor > 1
    assert set(report["latency_ms"]) == {"Baseline", "PI+H+R"}
    for point in report["latency_ms"].values():
        assert point["samples"] > 0
        assert point["p50_ms"] <= point["p99_ms"] <= point["max_ms"]
    assert set(report["sched"]["policies"]) == {"cfs", "rr", "mlfq", "deadline"}
    assert report["sched"]["adaptive"]["samples"] > 0
    assert report["rack"]["simulated_identical"] is True
    assert report["rack"]["shard_counts"] == list(bench.RACK_SHARD_COUNTS)
    # Strict JSON: no NaN/Infinity anywhere in the artifact.
    json.dumps(report, allow_nan=False)


def test_two_runs_write_the_same_bytes(report):
    """The report is a function of code and seed: a second run
    serializes to the same bytes, and the bytes round-trip."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    assert json.loads(text) == report
    assert json.dumps(_tiny_report(), indent=2, sort_keys=True, allow_nan=False) == text


def test_checked_in_baseline_gates_every_metric(report):
    baseline = {mid for mid, _, _ in _metrics(load_report(str(BASELINE)))}
    assert {mid for mid, _, _ in _metrics(report)} <= baseline


def test_cli_main_writes_artifact(tmp_path, monkeypatch):
    """``flow run --bench-out F`` writes exactly the ``bench`` task's
    result: no provenance block, nothing added."""
    from tests.test_bench_compare import run_flow_with_bench

    stub = {"schema": {"name": "repro-bench", "version": bench.BENCH_SCHEMA_VERSION},
            "revision": "flow", "watchdog_violations": 0}
    out = tmp_path / "BENCH_current.json"
    assert run_flow_with_bench(monkeypatch, tmp_path, stub, "bench",
                               "--bench-out", str(out)) == 0
    assert out.read_text(encoding="utf-8") == json.dumps(stub, indent=2, sort_keys=True) + "\n"
    assert "flow" not in json.loads(out.read_text(encoding="utf-8"))
