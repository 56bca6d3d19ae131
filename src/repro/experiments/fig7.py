"""Fig. 7 — Ping RTT under multiplexed vCPUs.

Paper shape: Baseline RTT varies widely with peaks near 18 ms (vCPU
scheduling delay); PI is marginally better; full ES2 keeps the RTT at a
very low level (most echoes answered by an online vCPU within tens of
microseconds).  The paper pings at 1-second intervals for minutes; the
simulated runs ping more often (with jitter) over a shorter horizon to
collect a comparable number of samples.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.configs import paper_config
from repro.experiments.testbed import multiplexed_testbed
from repro.metrics.latency import LatencySeries
from repro.metrics.report import format_table
from repro.parallel import SweepPoint
from repro.units import MS, SEC
from repro.workloads.ping import PingWorkload

__all__ = ["fig7_points", "format_fig7", "FIG7_CONFIGS", "FLOW_REDUCED"]

#: Reduced-mode overrides for the DAG runner: a short ping run.
FLOW_REDUCED = dict(duration_ns=250 * MS)

FIG7_CONFIGS = ("Baseline", "PI", "PI+H+R")


def _fig7_point(name: str, seed: int, duration_ns: int, interval_ns: int) -> LatencySeries:
    """RTT series for one configuration on a fresh testbed."""
    tb = multiplexed_testbed(paper_config(name, quota=4), seed=seed)
    wl = PingWorkload(tb, tb.tested, interval_ns=interval_ns)
    wl.start()
    tb.run_for(duration_ns)
    return LatencySeries(wl.pinger.rtts_ns)


def fig7_points(
    configs: Sequence[str] = FIG7_CONFIGS,
    seed: int = 3,
    duration_ns: int = int(1.5 * SEC),
    interval_ns: int = 10 * MS,
) -> List[SweepPoint]:
    """One RTT series per configuration, keyed by config name."""
    return [
        SweepPoint(
            key=name,
            fn=_fig7_point,
            kwargs=dict(
                name=name, seed=seed, duration_ns=duration_ns, interval_ns=interval_ns
            ),
        )
        for name in configs
    ]


def format_fig7(results: Dict[str, LatencySeries]) -> str:
    """Render the results as a paper-style text table."""
    from repro.metrics.ascii_plot import sparkline

    rows = []
    for name, series in results.items():
        rows.append(
            [
                name,
                len(series),
                f"{series.mean_ms():.3f}",
                f"{series.percentile_ms(50):.3f}",
                f"{series.percentile_ms(90):.3f}",
                f"{series.max_ms():.3f}",
            ]
        )
    table = format_table(
        ["Config", "Samples", "Mean (ms)", "p50 (ms)", "p90 (ms)", "Max (ms)"],
        rows,
        title="Fig. 7: Ping RTT under multiplexed vCPUs",
    )
    # The paper plots the RTT-vs-time series; show it on a shared scale.
    global_max = max((s.max_ms() for s in results.values()), default=1.0)
    spark_lines = [
        f"{name:>9} {sparkline(s.series_ms()[:80], lo=0.0, hi=global_max)}"
        for name, s in results.items()
    ]
    return table + f"\n\nRTT series (shared 0..{global_max:.1f} ms scale):\n" + "\n".join(spark_lines)
