"""Measurement layer: exit statistics, TIG, latency, reports."""

from repro.metrics.exits import ExitBreakdown, collect_breakdown
from repro.metrics.tig import TigMeter
from repro.metrics.latency import LatencySeries
from repro.metrics.report import format_table
from repro.metrics.ascii_plot import sparkline, line_plot

__all__ = [
    "ExitBreakdown",
    "collect_breakdown",
    "TigMeter",
    "LatencySeries",
    "format_table",
    "sparkline",
    "line_plot",
]
