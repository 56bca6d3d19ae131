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
    # Strict JSON: no NaN/Infinity anywhere in the artifact.
    json.dumps(report, allow_nan=False)


def test_write_report_and_roundtrip(report, tmp_path):
    path = bench.write_report(report, str(tmp_path / "BENCH_test.json"))
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == report
    assert bench.format_bench(report)
    # The report is a function of code and seed: a second run writes
    # the same bytes.
    again = bench.write_report(_tiny_report(), str(tmp_path / "BENCH_again.json"))
    assert Path(again).read_bytes() == Path(path).read_bytes()


def test_checked_in_baseline_gates_every_metric(report):
    baseline = {mid for mid, _, _ in _metrics(load_report(str(BASELINE)))}
    assert {mid for mid, _, _ in _metrics(report)} <= baseline


def test_default_artifact_name_uses_revision(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = {"revision": "abc1234", "x": 1}
    path = bench.write_report(report)
    assert path == "BENCH_abc1234.json"
    assert (tmp_path / path).exists()


def test_current_revision_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_REV", "r2d2")
    assert bench.current_revision() == "r2d2"


def test_cli_main_writes_artifact(tmp_path, capsys):
    out = tmp_path / "BENCH_cli.json"
    rc = bench.main([
        "--seed", "1",
        "--warmup-ms", "5",
        "--measure-ms", "15",
        "--latency-ms", "50",
        "--sched-ms", "40",
        "--rack-ms", "4",
        "--output", str(out),
    ])
    assert rc == 0
    assert out.exists()
    report = json.loads(out.read_text())
    assert report["schema"]["version"] == bench.BENCH_SCHEMA_VERSION
    assert report["params"] == {
        "seed": 1,
        "warmup_ns": 5 * 10**6,
        "measure_ns": 15 * 10**6,
        "latency_duration_ns": 50 * 10**6,
        "sched_duration_ns": 40 * 10**6,
        "rack_duration_ns": 4 * 10**6,
    }
    assert set(report["sched"]["policies"]) == {"cfs", "rr", "mlfq", "deadline"}
    assert report["sched"]["adaptive"]["samples"] > 0
    assert report["rack"]["simulated_identical"] is True
    assert report["rack"]["shard_counts"] == list(bench.RACK_SHARD_COUNTS)
    printed = capsys.readouterr().out
    assert "bench report" in printed and str(out) in printed
