"""Tests for the one bench gate: :func:`repro.obs.bench_compare.compare`
behind the flow's ``bench-compare`` task.

Everything here starts from hand-written reports or the checked-in
``BENCH_baseline.json``, with the flow's ``calibrate`` and ``bench``
tasks stubbed: nothing is simulated.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

from repro.flow.graph import FlowError
from repro.flow.tasks import bench_compare_task
from repro.obs import bench_compare

_ROOT = Path(__file__).resolve().parent.parent
_LIMIT = bench_compare.MAX_REGRESSION_PCT / 100


def _report(**overrides):
    base = {
        "schema": {"name": "repro-bench", "version": 2},
        "revision": "test",
        "throughput": {
            "Baseline": {"throughput_gbps": 0.9, "tig": 0.58},
            "PI": {"throughput_gbps": 1.16, "tig": 0.77},
        },
        "hybrid": {
            "baseline": {"throughput_gbps": 0.7},
            "quota8": {"throughput_gbps": 1.0},
        },
        "latency_ms": {
            "Baseline": {"p50_ms": 7.6, "p99_ms": 38.2},
            "PI+H+R": {"p50_ms": 0.03, "p99_ms": 7.0},
        },
    }
    base.update(overrides)
    return base


def _baseline():
    return bench_compare.load_report(str(_ROOT / "BENCH_baseline.json"))


def run_flow_with_bench(monkeypatch, tmp_path, report, target, *extra):
    """``flow run --mode reduced --only TARGET`` with ``calibrate`` stubbed
    and ``bench`` returning ``report``: the real graph, simulating nothing."""
    from repro.flow import tasks
    from repro.flow.cli import main

    monkeypatch.setattr(tasks, "calibrate_task", lambda deps, **kwargs: {})
    monkeypatch.setattr(tasks, "bench_task", lambda deps: report)
    return main(["run", "--mode", "reduced", "--only", target, "--jobs", "1",
                 "--state-dir", str(tmp_path / "flow"), *extra])


class TestCompare:
    def test_identity_has_no_regressions(self):
        report = _report()
        lines, regressions = bench_compare.compare(report, report)
        assert regressions == []
        assert any("throughput[PI].gbps" in line for line in lines)
        assert any("latency[PI+H+R].p99_ms" in line for line in lines)

    def test_throughput_drop_beyond_threshold_flags(self):
        current = _report()
        current["throughput"]["PI"]["throughput_gbps"] = 1.16 * (1 - 2 * _LIMIT)
        _, regressions = bench_compare.compare(_report(), current)
        assert len(regressions) == 1
        assert regressions[0].startswith("throughput[PI].gbps")

    def test_throughput_drop_within_threshold_passes(self):
        current = _report()
        current["throughput"]["PI"]["throughput_gbps"] = 1.16 * (1 - _LIMIT / 2)
        _, regressions = bench_compare.compare(_report(), current)
        assert regressions == []

    def test_p99_increase_gates_only_upward(self):
        current = _report()
        current["latency_ms"]["PI+H+R"]["p99_ms"] = 7.0 * (1 + 2 * _LIMIT)
        _, regressions = bench_compare.compare(_report(), current)
        assert len(regressions) == 1
        assert "latency[PI+H+R].p99_ms" in regressions[0]
        # An improvement of the same magnitude never gates.
        current["latency_ms"]["PI+H+R"]["p99_ms"] = 7.0 * (1 - 2 * _LIMIT)
        _, regressions = bench_compare.compare(_report(), current)
        assert regressions == []

    def test_new_and_gone_metrics_listed_but_not_gated(self):
        baseline = _report()
        current = copy.deepcopy(baseline)
        del current["throughput"]["Baseline"]
        current["latency_ms"]["PI"] = {"p50_ms": 1.0, "p99_ms": 2.0}
        lines, regressions = bench_compare.compare(baseline, current)
        assert regressions == []
        assert any("gone; not gated" in line for line in lines)
        assert any("new; not gated" in line for line in lines)

    def test_zero_baseline_does_not_divide(self):
        baseline = _report()
        baseline["throughput"]["PI"]["throughput_gbps"] = 0.0
        lines, regressions = bench_compare.compare(baseline, _report())
        assert any("inf" in line for line in lines)
        assert regressions == []  # inf delta in the good direction

    def test_watchdog_violations_gate(self):
        report = _report()
        _, regressions = bench_compare.compare(report, dict(report, watchdog_violations=2))
        assert [r.split(":")[0] for r in regressions] == ["watchdog_violations"]
        # Violations in the baseline alone are history, not a regression.
        _, regressions = bench_compare.compare(dict(report, watchdog_violations=2), report)
        assert regressions == []

    def test_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": {"name": "something-else"}}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a repro-bench report")):
            bench_compare.load_report(str(path))

    def test_checked_in_baseline_is_loadable(self):
        metrics = dict(
            (mid, value) for mid, _, value in bench_compare._metrics(_baseline())
        )
        assert "throughput[PI].gbps" in metrics
        assert any(mid.startswith("latency[") for mid in metrics)

    def test_checked_in_baseline_gates_the_scheduler_zoo(self):
        baseline = _baseline()
        current = copy.deepcopy(baseline)
        current["sched"]["policies"]["cfs"]["p99_ms"] *= 2
        _, regressions = bench_compare.compare(baseline, current)
        assert [r.split(":")[0] for r in regressions] == ["sched[cfs].p99_ms"]


class TestFlowGate:
    """The flow's ``bench-compare`` task names the cause of every failure."""

    def test_names_watchdog_violations(self):
        current = _baseline()
        current["watchdog_violations"] = 3
        with pytest.raises(FlowError, match="watchdog_violations: 3"):
            bench_compare_task({"bench": current})

    def test_names_a_sched_p99_regression(self):
        current = _baseline()
        current["sched"]["policies"]["rr"]["p99_ms"] *= 1.5
        with pytest.raises(FlowError, match=r"sched\[rr\]\.p99_ms: .*\+50\.0%"):
            bench_compare_task({"bench": current})

    def test_names_a_foreign_baseline_file(self, tmp_path, monkeypatch):
        foreign = tmp_path / "BENCH_baseline.json"
        foreign.write_text(json.dumps({"schema": {"name": "something-else"}}))
        monkeypatch.setattr("repro.flow.diff.repo_root", lambda: tmp_path)
        with pytest.raises(ValueError, match=re.escape(str(foreign))):
            bench_compare_task({"bench": _baseline()})

    def test_skips_outside_a_checkout(self, monkeypatch):
        monkeypatch.setattr("repro.flow.diff.repo_root", lambda: None)
        current = _baseline()
        current["watchdog_violations"] = 3
        assert bench_compare_task({"bench": current})["skipped"]


class TestCli:
    """The gate's command line is ``flow run --only bench-compare`` (what
    ``make bench`` runs): exit 0 on identity, 1 naming the regression."""

    def test_exit_zero_on_identity(self, tmp_path, monkeypatch, capsys):
        assert run_flow_with_bench(monkeypatch, tmp_path, _baseline(), "bench-compare") == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        # The table, not just the verdict: one row per metric.
        assert re.search(r"^  throughput\[PI\]\.gbps +[\d.]+ +[\d.]+ +\+0\.0%$", out, re.M)

    def test_exit_one_on_regression(self, tmp_path, monkeypatch, capsys):
        worse = _baseline()
        worse["throughput"]["PI"]["throughput_gbps"] *= 0.5
        assert run_flow_with_bench(monkeypatch, tmp_path, worse, "bench-compare") == 1
        out = capsys.readouterr().out
        assert "FAILED  bench-compare" in out and "throughput[PI].gbps" in out
        assert re.search(r"^  throughput\[PI\]\.gbps +[\d.]+ +[\d.]+ +-50\.0%  REGRESSION$",
                         out, re.M)
        assert re.search(r"^  throughput\[Baseline\]\.gbps +[\d.]+ +[\d.]+ +\+0\.0%$", out, re.M)
