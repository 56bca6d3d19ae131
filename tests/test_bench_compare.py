"""Tests for the bench regression gate (repro.obs.bench_compare)."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.obs import bench_compare

_ROOT = Path(__file__).resolve().parent.parent


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


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


class TestCompare:
    def test_identity_has_no_regressions(self):
        report = _report()
        lines, regressions = bench_compare.compare(report, report)
        assert regressions == []
        assert any("throughput[PI].gbps" in line for line in lines)
        assert any("latency[PI+H+R].p99_ms" in line for line in lines)

    def test_throughput_drop_beyond_threshold_flags(self):
        current = _report()
        current["throughput"]["PI"]["throughput_gbps"] = 0.8  # ~ -31%
        _, regressions = bench_compare.compare(_report(), current, max_drop_pct=25)
        assert len(regressions) == 1
        assert regressions[0].startswith("throughput[PI].gbps")

    def test_throughput_drop_within_threshold_passes(self):
        current = _report()
        current["throughput"]["PI"]["throughput_gbps"] = 1.0  # ~ -14%
        _, regressions = bench_compare.compare(_report(), current, max_drop_pct=25)
        assert regressions == []

    def test_p99_increase_gates_only_upward(self):
        current = _report()
        current["latency_ms"]["PI+H+R"]["p99_ms"] = 20.0  # ~ +186%
        _, regressions = bench_compare.compare(_report(), current, max_p99_increase_pct=60)
        assert len(regressions) == 1
        assert "latency[PI+H+R].p99_ms" in regressions[0]
        # An improvement of the same magnitude never gates.
        current["latency_ms"]["PI+H+R"]["p99_ms"] = 0.5
        _, regressions = bench_compare.compare(_report(), current, max_p99_increase_pct=60)
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


class TestCli:
    def test_exit_zero_on_identity(self, tmp_path, capsys):
        path = _write(tmp_path, "a.json", _report())
        assert bench_compare.main([path, path]) == 0
        out = capsys.readouterr().out
        assert "no regressions beyond threshold" in out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _report())
        worse = _report()
        worse["throughput"]["PI"]["throughput_gbps"] = 0.5
        cur = _write(tmp_path, "cur.json", worse)
        assert bench_compare.main([base, cur, "--max-throughput-drop", "25"]) == 1
        err = capsys.readouterr().err
        assert "1 regression(s) beyond threshold" in err

    def test_flow_provenance_printed_when_present(self, tmp_path, capsys):
        stamped = _report()
        stamped["flow"] = {"run_key": "cafe0123feed4567", "mode": "reduced",
                           "jobs": 4, "code_version": "abc123"}
        base = _write(tmp_path, "base.json", _report())
        cur = _write(tmp_path, "cur.json", stamped)
        assert bench_compare.main([base, cur]) == 0
        out = capsys.readouterr().out
        assert "flow run cafe0123feed4567" in out
        assert "mode=reduced" in out and "jobs=4" in out
        # Only the stamped side carries the provenance line.
        assert out.count("flow run") == 1

    def test_rejects_foreign_schema(self, tmp_path):
        path = _write(tmp_path, "bad.json", {"schema": {"name": "something-else"}})
        with pytest.raises(SystemExit, match="not a repro-bench report"):
            bench_compare.load_report(path)

    def test_checked_in_baseline_is_loadable(self):
        baseline = bench_compare.load_report(str(_ROOT / "BENCH_baseline.json"))
        metrics = dict(
            (mid, value) for mid, _, value in bench_compare._metrics(baseline)
        )
        assert "throughput[PI].gbps" in metrics
        assert any(mid.startswith("latency[") for mid in metrics)

    def test_checked_in_baseline_gates_the_scheduler_zoo(self):
        baseline = bench_compare.load_report(str(_ROOT / "BENCH_baseline.json"))
        current = copy.deepcopy(baseline)
        current["sched"]["policies"]["cfs"]["p99_ms"] *= 2
        _, regressions = bench_compare.compare(
            baseline, current, max_drop_pct=25, max_p99_increase_pct=60)
        assert [r.split(":")[0] for r in regressions] == ["sched[cfs].p99_ms"]
