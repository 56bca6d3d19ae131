"""Scheduler policy zoo × ES2 redirection × adaptive allocation sweep.

ROADMAP item 4's headline question: does ES2's intelligent interrupt
redirection still win when the host scheduler is *not* CFS?  The sweep
runs the Fig. 7 ping-RTT setup (four 4-vCPU VMs stacked on four cores —
the layout where scheduling delay dominates interrupt delivery) across

* redirection mode: ``off`` (PI), ``hybrid`` (PI+H), ``on`` (PI+H+R);
* host scheduler policy: cfs, rr, mlfq, deadline;
* adaptive backend-CPU allocation (arXiv 2310.14741): off, on.

The paper's argument predicts a *policy-robust* win: answering echoes on
an online vCPU should beat waiting out any policy's preemption geometry.
The full grid (static allocation) bears that out only in part: with
redirection on, the mean RTT falls under cfs, rr and mlfq but rises under
deadline, and the p99 falls under cfs and mlfq but rises under rr and
deadline (DESIGN.md §14 has the numbers).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.config import SchedParams
from repro.core.configs import paper_config
from repro.experiments.testbed import multiplexed_testbed
from repro.metrics.latency import LatencySeries
from repro.metrics.report import format_table
from repro.parallel import SweepPoint
from repro.units import MS, SEC
from repro.workloads.ping import PingWorkload

__all__ = [
    "sched_sweep_points",
    "format_sched_sweep",
    "SCHED_POLICIES",
    "REDIRECTION_MODES",
    "FLOW_REDUCED",
]

#: Reduced-mode overrides for the DAG runner: a 2x2 policy/redirection
#: corner of the grid, no adaptive leg, short duration.
FLOW_REDUCED = dict(policies=("cfs", "rr"), modes=("off", "on"),
                    adaptive=(False,), duration_ns=150 * MS)

SCHED_POLICIES = ("cfs", "rr", "mlfq", "deadline")

#: redirection axis -> paper configuration name
REDIRECTION_MODES = (("off", "PI"), ("hybrid", "PI+H"), ("on", "PI+H+R"))

_MODE_TO_CONFIG = dict(REDIRECTION_MODES)


def _sched_point(
    policy: str,
    config: str,
    adaptive: bool,
    seed: int,
    duration_ns: int,
    interval_ns: int,
) -> Dict[str, object]:
    """Ping-RTT statistics for one (policy, config, adaptive) cell."""
    params = SchedParams(policy=policy, adaptive_alloc=adaptive)
    tb = multiplexed_testbed(paper_config(config, quota=4), seed=seed, sched_params=params)
    wl = PingWorkload(tb, tb.tested, interval_ns=interval_ns)
    wl.start()
    tb.run_for(duration_ns)
    series = LatencySeries(wl.pinger.rtts_ns)
    point: Dict[str, object] = {
        "policy": policy,
        "config": config,
        "adaptive": adaptive,
        "samples": len(series),
        "mean_ms": series.mean_ms(),
        "p50_ms": series.percentile_ms(50),
        "p99_ms": series.percentile_ms(99),
        "max_ms": series.max_ms(),
        # enough of the series for the sparkline figures, not the full run
        "rtt_ms": series.series_ms()[:200],
    }
    if tb.adaptive is not None:
        point["adaptive_stats"] = {
            "evaluations": tb.adaptive.evaluations,
            "rebalances": tb.adaptive.rebalances,
            "migrations": tb.adaptive.migrations,
            "backend_cores": [c.index for c in tb.adaptive.backend_cores],
            "vcpu_cores": [c.index for c in tb.adaptive.vcpu_cores],
        }
    return point


def sched_sweep_points(
    policies: Sequence[str] = SCHED_POLICIES,
    modes: Sequence[str] = tuple(m for m, _ in REDIRECTION_MODES),
    adaptive: Sequence[bool] = (False, True),
    seed: int = 3,
    duration_ns: int = int(0.8 * SEC),
    interval_ns: int = 10 * MS,
) -> List[SweepPoint]:
    """The full grid; keys are ``(policy, mode, "adaptive"|"static")``."""
    sweep = []
    for policy in policies:
        for mode in modes:
            config = _MODE_TO_CONFIG[mode]
            for ad in adaptive:
                sweep.append(
                    SweepPoint(
                        key=(policy, mode, "adaptive" if ad else "static"),
                        fn=_sched_point,
                        kwargs=dict(
                            policy=policy,
                            config=config,
                            adaptive=bool(ad),
                            seed=seed,
                            duration_ns=duration_ns,
                            interval_ns=interval_ns,
                        ),
                    )
                )
    return sweep


def format_sched_sweep(results: Dict[Tuple[str, str, str], Dict[str, object]]) -> str:
    """Render the sweep as a table plus per-policy RTT sparklines."""
    from repro.metrics.ascii_plot import line_plot, sparkline

    rows = []
    for (policy, mode, alloc), point in sorted(results.items()):
        rows.append(
            [
                policy,
                mode,
                alloc,
                point["samples"],
                f"{point['mean_ms']:.3f}",
                f"{point['p50_ms']:.3f}",
                f"{point['p99_ms']:.3f}",
                f"{point['max_ms']:.3f}",
            ]
        )
    table = format_table(
        ["Policy", "Redirect", "Alloc", "Samples", "Mean (ms)", "p50 (ms)", "p99 (ms)", "Max (ms)"],
        rows,
        title="Scheduler policy zoo: ping RTT vs ES2 redirection",
    )

    # Figure: p99 RTT per policy, one line per redirection mode (static
    # allocation) — the "is redirection policy-robust?" picture.
    policies = sorted({p for p, _, _ in results})
    series = {}
    for mode, _cfg in REDIRECTION_MODES:
        values = [
            results[(p, mode, "static")]["p99_ms"]
            for p in policies
            if (p, mode, "static") in results
        ]
        if values:
            series[mode] = values
    figure = ""
    if series:
        figure = "\n\np99 RTT (ms) by policy, one line per redirection mode:\n"
        figure += line_plot(series, height=10, y_label="p99 ms", x_labels=policies)

    # RTT series texture per policy with redirection fully on.
    spark_max = max((point["max_ms"] for point in results.values()), default=1.0)
    sparks = []
    for policy in policies:
        point = results.get((policy, "on", "static"))
        if point is not None:
            sparks.append(
                f"{policy:>9} {sparkline(point['rtt_ms'][:80], lo=0.0, hi=spark_max)}"
            )
    if sparks:
        figure += (
            f"\n\nRTT series with redirection on (shared 0..{spark_max:.1f} ms scale):\n"
            + "\n".join(sparks)
        )
    return table + figure
