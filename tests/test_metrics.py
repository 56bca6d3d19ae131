"""Tests for the measurement layer."""

from __future__ import annotations

import pytest

from repro.core.configs import paper_config
from repro.experiments.testbed import single_vcpu_testbed
from repro.kvm.exits import ExitReason, ExitStats
from repro.metrics.exits import ExitBreakdown, collect_breakdown
from repro.metrics.latency import LatencySeries
from repro.metrics.report import format_table
from repro.metrics.tig import TigMeter
from repro.units import MS, SEC


class TestExitStats:
    def test_categories_fold_correctly(self):
        s = ExitStats()
        s.record(ExitReason.EXTERNAL_INTERRUPT)
        s.record(ExitReason.APIC_ACCESS)
        s.record(ExitReason.IO_INSTRUCTION)
        s.record(ExitReason.EPT_VIOLATION)
        s.record(ExitReason.HLT)
        by_cat = s.by_category()
        assert by_cat["interrupt-delivery"] == 1
        assert by_cat["interrupt-completion"] == 1
        assert by_cat["io-request"] == 1
        assert by_cat["others"] == 2
        assert s.total == 5

    def test_rates_between_marks(self):
        s = ExitStats()
        s.mark("a", 0)
        for _ in range(100):
            s.record(ExitReason.IO_INSTRUCTION)
        s.mark("b", SEC)
        rates = s.rates_between("a", "b")
        assert rates["io-request"] == pytest.approx(100.0)
        assert s.total_rate_between("a", "b") == pytest.approx(100.0)
        assert s.count_between("a", "b") == 100
        assert s.count_between("a", "b", ExitReason.IO_INSTRUCTION) == 100

    def test_breakdown_percentages(self):
        b = ExitBreakdown(25, 25, 50, 0)
        pct = b.percentages()
        assert pct["io-request"] == pytest.approx(50.0)
        assert b.total == 100

    def test_breakdown_empty(self):
        b = ExitBreakdown(0, 0, 0, 0)
        assert b.total == 0
        assert all(v == 0 for v in b.percentages().values())

    def test_collect_breakdown_roundtrip(self):
        s = ExitStats()
        s.mark("a", 0)
        s.record(ExitReason.APIC_ACCESS)
        s.mark("b", SEC)
        b = collect_breakdown(s, "a", "b")
        assert b.interrupt_completion == pytest.approx(1.0)


class TestTigMeter:
    def test_tig_window_excludes_warmup(self):
        tb = single_vcpu_testbed(paper_config("PI"), seed=9)
        tb.run_for(50 * MS)
        meter = TigMeter(tb.tested.vm)
        tb.run_for(100 * MS)
        assert 0.9 < meter.tig() <= 1.0
        assert meter.guest_ns() > 0

    def test_empty_window(self):
        tb = single_vcpu_testbed(paper_config("PI"), seed=9)
        meter = TigMeter(tb.tested.vm)
        assert meter.tig() == 0.0


class TestLatencySeries:
    def test_summary_stats(self):
        s = LatencySeries([1_000_000, 2_000_000, 3_000_000])  # 1,2,3 ms
        assert s.mean_ms() == pytest.approx(2.0)
        assert s.max_ms() == pytest.approx(3.0)
        assert s.percentile_ms(50) == pytest.approx(2.0)
        assert len(s) == 3

    def test_empty_series(self):
        s = LatencySeries()
        assert s.mean_ms() == 0.0
        assert s.max_ms() == 0.0

    def test_us_readouts(self):
        # µs precision: 32.8 µs is 0.0328 ms — the ms readouts round it away.
        s = LatencySeries([32_800, 41_400, 35_900])
        assert s.mean_us() == pytest.approx((32.8 + 41.4 + 35.9) / 3)
        assert s.max_us() == pytest.approx(41.4)
        assert s.percentile_us(50) == pytest.approx(35.9)
        assert s.series_us() == pytest.approx([32.8, 41.4, 35.9])
        assert s.percentile_us(50) == pytest.approx(s.percentile_ms(50) * 1e3)

    def test_us_empty(self):
        s = LatencySeries()
        assert s.mean_us() == 0.0
        assert s.max_us() == 0.0
        assert s.series_us() == []


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["A", "Blong"], [[1, 2.5], ["xx", 10000.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Blong" in lines[1]
        assert len(lines) == 5
        # All rows share the same width.
        assert len(set(len(l) for l in lines[2:])) == 1
