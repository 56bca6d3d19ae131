"""Smoke tests for every experiment formatter (stable, parseable output)."""

from __future__ import annotations

from repro.experiments.ablations import format_redirect_ablation
from repro.experiments.coalescing import CoalescingPoint, format_coalescing
from repro.experiments.fig4 import QuotaPoint, format_fig4
from repro.experiments.fig6 import format_fig6
from repro.experiments.fig7 import format_fig7
from repro.experiments.fig8 import format_fig8
from repro.experiments.fig9 import format_fig9
from repro.experiments.runner import MeasuredRun
from repro.experiments.table1 import format_table1
from repro.metrics.exits import ExitBreakdown
from repro.metrics.latency import LatencySeries


def mk_run(name, io=1000.0, delivery=100.0, completion=100.0, others=10.0, tig=0.9):
    return MeasuredRun(
        config=name,
        exit_rates=ExitBreakdown(delivery, completion, io, others),
        tig=tig,
        throughput_gbps=1.5,
    )


class TestFormatters:
    def test_table1(self):
        out = format_table1({"Baseline": mk_run("Baseline"), "PI": mk_run("PI", delivery=0, completion=0)})
        assert "Table I" in out
        assert "Baseline (%)" in out
        assert out.count("\n") >= 4

    def test_fig4(self):
        points = {
            None: QuotaPoint(None, 90_000, 95_000, 0.6),
            8: QuotaPoint(8, 100, 1_000, 0.8),
        }
        out = format_fig4(points, "udp")
        assert "baseline" in out
        assert "quota=8" in out

    def test_fig6_send_and_receive_titles(self):
        results = {("Baseline", 512): 0.4, ("PI+H+R", 512): 0.8}
        assert "sending" in format_fig6(results, "send")
        assert "receiving" in format_fig6(results, "receive")
        assert "512B" in format_fig6(results, "send")

    def test_fig7(self):
        out = format_fig7({"Baseline": LatencySeries([8_000_000] * 10)})
        assert "p90" in out
        assert "8.000" in out

    def test_fig8(self):
        out = format_fig8({"Baseline": 1000.0, "PI+H+R": 1800.0}, "memcached")
        assert "1.80x" in out

    def test_fig9(self):
        out = format_fig9({("Baseline", 800): 8.0, ("Baseline", 1800): 66.0})
        assert "800/s" in out
        assert "66.00" in out

    def test_ablation(self):
        out = format_redirect_ablation({"ES2 (full)": LatencySeries([30_000] * 5)})
        assert "ES2 (full)" in out

    def test_coalescing(self):
        out = format_coalescing(
            {"Baseline": CoalescingPoint("Baseline", 90_000, 95_000, 0.78, 0.02)}
        )
        assert "IRQ exits/s" in out
        assert "78.0%" in out
