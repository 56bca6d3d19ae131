"""Tests for the self-contained HTML dashboard (repro.obs.dashboard).

The shared page checks (:mod:`tests.artifact_checks`) cover the offline
contract and balanced markup; the checks here add the tooltip payload
shape, the expected chart/metric ids, and the acceptance-criterion
cross-check — steady-state exit rates reaggregated from the points'
timeline windows must match the bench aggregate within 1%.
"""

from __future__ import annotations

import pytest

from repro.obs import bench
from repro.obs.dashboard import render_dashboard, steady_state_window_rate
from repro.parallel import run_sweep
from repro.units import MS

from tests.artifact_checks import check_page


@pytest.fixture(scope="module")
def points():
    return run_sweep(bench.bench_points(
        seed=1,
        warmup_ns=5 * MS,
        measure_ns=15 * MS,
        latency_duration_ns=50 * MS,
    ))


@pytest.fixture(scope="module")
def report(points):
    return bench.bench_report(points)


@pytest.fixture(scope="module")
def doc(points):
    return render_dashboard(points)


def test_dashboard_is_self_contained(doc):
    check_page(doc)
    assert doc.lower().count("<svg") >= 5  # the charts themselves are inline


def test_dashboard_markup_balanced_and_payloads_parse(doc):
    scan = check_page(doc)
    assert scan.payloads  # one tooltip payload per rendered chart
    for payload in scan.payloads:
        assert payload["tmin"] <= payload["tmax"]
        assert payload["t"]  # shared time base
        for s in payload["series"]:
            assert len(s["v"]) == len(payload["t"])


def test_dashboard_has_expected_charts_and_metric_ids(doc, report):
    scan = check_page(doc)
    for name in report["throughput"]:
        assert f"exits-{name}" in scan.ids
        assert f"net-{name}" in scan.ids
        assert f"gauges-{name}" in scan.ids
    assert "residency-PI+H+R" in scan.ids  # the hybrid latency point
    assert "tooltip" in scan.ids
    # metric ids surfaced in legends/tables, not just internal keys
    assert "kvm.exits." in doc
    assert "host.runqueue.core0" in doc
    assert ".residency.notification" in doc
    # watchdog verdict tile and the steady-state cross-check table
    assert "0 violations" in doc
    assert "Steady-state cross-check" in doc
    # the subtitle names the schema and the points' own parameters
    assert "schema v9 · seed 1 · measure 15 ms · window 100 µs" in doc


def test_steady_state_windows_match_bench_aggregate_within_1pct(points, report):
    for name, point in report["throughput"].items():
        windowed = steady_state_window_rate(points[("throughput", name)])
        assert windowed is not None, name
        aggregate = point["exits_per_sec"]["total"]
        assert windowed == pytest.approx(aggregate, rel=0.01), name
        # ... and with the exact summed-delta figure the report carries
        exact = point["timeline"]["steady_state"]["exits_per_sec_total"]
        assert windowed == pytest.approx(exact, rel=1e-9), name


def test_report_watchdog_verdict_is_clean(report):
    assert report["watchdog_violations"] == 0
    points = (*report["throughput"].values(), *report["latency_ms"].values())
    for point in points:
        wd = point["timeline"]["watchdog"]
        assert wd["violations"] == 0
        assert wd["windows_checked"] > 0

