"""Experiment harness: testbed builders and per-table/figure grids.

Each module reproduces one table or figure of the paper's evaluation
(Section VI); its ``<x>_points(...)`` declares the grid and runs nothing
(``run_sweep`` or the flow runs it).  See DESIGN.md for the experiment
index and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro.experiments.testbed import Testbed, VmSetup, single_vcpu_testbed, multiplexed_testbed
from repro.experiments.runner import MeasuredRun, measure_window
from repro.experiments.table1 import table1_points, format_table1
from repro.experiments.fig4 import fig4_points, format_fig4, QuotaPoint
from repro.experiments.fig5 import fig5_points, format_fig5
from repro.experiments.fig6 import fig6_points, format_fig6
from repro.experiments.fig7 import fig7_points, format_fig7
from repro.experiments.fig8 import fig8_points, format_fig8
from repro.experiments.fig9 import fig9_points, format_fig9, find_knee
from repro.experiments.ablations import redirect_policy_ablation_points, format_redirect_ablation
from repro.experiments.sriov import sriov_points, format_sriov
from repro.experiments.coalescing import coalescing_points, format_coalescing

__all__ = [
    "Testbed",
    "VmSetup",
    "single_vcpu_testbed",
    "multiplexed_testbed",
    "MeasuredRun",
    "measure_window",
    "table1_points",
    "format_table1",
    "fig4_points",
    "format_fig4",
    "QuotaPoint",
    "fig5_points",
    "format_fig5",
    "fig6_points",
    "format_fig6",
    "fig7_points",
    "format_fig7",
    "fig8_points",
    "format_fig8",
    "fig9_points",
    "format_fig9",
    "find_knee",
    "redirect_policy_ablation_points",
    "format_redirect_ablation",
    "sriov_points",
    "format_sriov",
    "coalescing_points",
    "format_coalescing",
]
