"""Tests for the machine-readable bench report (repro.obs.bench): its
points, their assembly into the report, and the artifact the flow writes."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.obs import bench
from repro.obs.bench_compare import _metrics, load_report
from repro.parallel import run_sweep
from repro.units import MS

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"

TINY = dict(seed=1, warmup_ns=5 * MS, measure_ns=15 * MS,
            latency_duration_ns=50 * MS, sched_duration_ns=50 * MS)


def _tiny_points(reverse=False):
    points = bench.bench_points(**TINY)
    return run_sweep(points[::-1] if reverse else points)


def _bytes(report):
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


@pytest.fixture(scope="module")
def points():
    return _tiny_points()


@pytest.fixture(scope="module")
def report(points):
    return bench.bench_report(points)


def test_points_are_keyed_by_block_and_config():
    assert [point.key for point in bench.bench_points()] == [
        ("throughput", "Baseline"), ("throughput", "PI"),
        ("hybrid", "baseline"), ("hybrid", "quota8"),
        ("latency", "Baseline"), ("latency", "PI+H+R"),
        ("sched", "cfs"), ("sched", "rr"), ("sched", "mlfq"), ("sched", "deadline"),
        ("sched", "adaptive"),
    ]


def test_report_schema_and_content(report):
    assert report["schema"] == {"name": "repro-bench", "version": bench.BENCH_SCHEMA_VERSION}
    assert bench.BENCH_SCHEMA_VERSION == 9
    assert report["params"] == TINY
    assert set(report) == {"schema", "params", "throughput", "hybrid", "latency_ms",
                           "sched", "watchdog_violations"}
    assert set(report["throughput"]) == {"Baseline", "PI"}
    for point in report["throughput"].values():
        assert point["throughput_gbps"] > 0
        assert 0 < point["tig"] <= 1
        assert point["exits_per_sec"]["total"] >= 0
        assert set(point) == {"throughput_gbps", "tig", "exits_per_sec", "timeline"}
    hybrid = report["hybrid"]
    assert hybrid["baseline"]["io_exits_per_sec"] > 0
    factor = hybrid["io_exit_reduction_factor"]
    assert factor is None or factor > 1
    for label in ("baseline", "quota8"):
        assert set(hybrid[label]) == {"io_exits_per_sec", "throughput_gbps"}
    assert set(report["latency_ms"]) == {"Baseline", "PI+H+R"}
    for point in report["latency_ms"].values():
        assert point["samples"] > 0
        assert point["p50_ms"] <= point["p99_ms"] <= point["max_ms"]
        assert point["path"]["stages"]
    for point in (*report["throughput"].values(), *report["latency_ms"].values()):
        timeline = point["timeline"]
        # The summary: the per-window series stay in the points.
        assert set(timeline) == {"window_ns", "windows_total", "steady_windows",
                                 "steady_state", "watchdog"}
        assert set(timeline["steady_state"]) == {"t_start", "t_end", "exits_per_sec_total"}
    assert set(report["sched"]["policies"]) == {"cfs", "rr", "mlfq", "deadline"}
    assert report["sched"]["adaptive"]["samples"] > 0
    assert report["sched"]["adaptive"]["adaptive"]["evaluations"] > 0
    assert "params" not in report["sched"]["policies"]["cfs"]
    json.loads(_bytes(report))  # strict JSON: no NaN/Infinity anywhere


def test_two_runs_write_the_same_bytes(report):
    """The report is a function of code and seed: a second run
    serializes to the same bytes, and the bytes round-trip."""
    text = _bytes(report)
    assert json.loads(text) == report
    assert _bytes(bench.bench_report(_tiny_points())) == text


def test_points_in_reverse_order_give_the_same_report(report):
    """No state leaks from one point into the next."""
    assert _bytes(bench.bench_report(_tiny_points(reverse=True))) == _bytes(report)


def test_points_that_disagree_on_a_parameter_are_rejected(points):
    skewed = copy.deepcopy(points)
    skewed[("sched", "rr")]["params"]["seed"] = 2
    with pytest.raises(ValueError, match="disagree on seed"):
        bench.bench_report(skewed)


def test_checked_in_baseline_gates_every_metric(report):
    baseline = {mid for mid, _, _ in _metrics(load_report(str(BASELINE)))}
    assert {mid for mid, _, _ in _metrics(report)} == baseline and len(baseline) == 13


def test_checked_in_baseline_is_the_current_schema():
    """``BENCH_baseline.json`` is the flow's artifact, regenerated at
    the current schema: a summary of a few KB."""
    baseline = load_report(str(BASELINE))
    assert baseline["schema"]["version"] == bench.BENCH_SCHEMA_VERSION
    assert BASELINE.stat().st_size <= 16 * 1024


def test_cli_main_writes_artifact(tmp_path, monkeypatch):
    """``flow run --bench-out F`` writes exactly the ``bench`` task's
    result: no provenance block, nothing added."""
    from tests.test_bench_compare import run_flow_with_bench

    stub = {"schema": {"name": "repro-bench", "version": bench.BENCH_SCHEMA_VERSION},
            "watchdog_violations": 0}
    out = tmp_path / "BENCH_current.json"
    assert run_flow_with_bench(monkeypatch, tmp_path, stub, "bench",
                               "--bench-out", str(out)) == 0
    assert out.read_text(encoding="utf-8") == json.dumps(stub, indent=2, sort_keys=True) + "\n"
    assert "flow" not in json.loads(out.read_text(encoding="utf-8"))
