"""Ablation: vIC-style interrupt coalescing vs ES2 (Section II-C).

The paper's related-work argument: reducing the *number* of interrupts
(moderation/coalescing) does cut Baseline exits, "but doing so is far from
trivial, likely impeding latency".  This experiment measures exactly that
trade-off: a Baseline with an aggressive coalescing window gets most of
PI's exit reduction on the receive path — and pays for it with a latency
floor equal to the window, while ES2 gets *both* the exit elimination and
the low latency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.core.configs import paper_config
from repro.experiments.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS, measure_window
from repro.experiments.testbed import single_vcpu_testbed
from repro.metrics.report import format_table
from repro.parallel import SweepPoint
from repro.units import MS, SEC, us
from repro.workloads.netperf import NetperfUdpReceive
from repro.workloads.ping import PingWorkload

__all__ = ["CoalescingPoint", "coalescing_points", "format_coalescing", "FLOW_REDUCED"]

#: Reduced-mode overrides for the DAG runner (repro.flow.tasks).
FLOW_REDUCED = dict(warmup_ns=20 * MS, measure_ns=60 * MS, ping_duration_ns=200 * MS)


@dataclass
class CoalescingPoint:
    config: str
    interrupt_exit_rate: float
    total_exit_rate: float
    tig: float
    ping_mean_ms: float


def _variants():
    return {
        "Baseline": paper_config("Baseline"),
        "Baseline+vIC": replace(paper_config("Baseline"), irq_coalesce_ns=us(250)),
        "ES2": paper_config("PI+H+R", quota=8),
    }


def _coalescing_point(
    name: str, seed: int, warmup_ns: int, measure_ns: int, ping_duration_ns: int
) -> CoalescingPoint:
    """UDP-receive exits + ping latency for one coalescing variant."""
    feats = _variants()[name]
    tb = single_vcpu_testbed(feats, seed=seed)
    wl = NetperfUdpReceive(tb, tb.tested, payload_size=1024, rate_pps=250_000)
    wl.start()
    run = measure_window(tb, wl, warmup_ns, measure_ns, config_name=name)

    tb2 = single_vcpu_testbed(feats, seed=seed)
    ping = PingWorkload(tb2, tb2.tested, interval_ns=5 * MS)
    ping.start()
    # Background load keeps the coalescing window hot, so the ping
    # experiences the moderation delay as real traffic would.
    bg = NetperfUdpReceive(tb2, tb2.tested, payload_size=1024, rate_pps=100_000)
    bg.start()
    tb2.run_for(ping_duration_ns)

    return CoalescingPoint(
        config=name,
        interrupt_exit_rate=run.exit_rates.interrupt_delivery
        + run.exit_rates.interrupt_completion,
        total_exit_rate=run.total_exit_rate,
        tig=run.tig,
        ping_mean_ms=ping.mean_rtt_ms(),
    )


def coalescing_points(
    seed: int = 5,
    warmup_ns: int = DEFAULT_WARMUP_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
    ping_duration_ns: int = SEC,
) -> List[SweepPoint]:
    """UDP-receive exits + ping latency for Baseline / Baseline+vIC / ES2,
    keyed by config name."""
    return [
        SweepPoint(
            key=name,
            fn=_coalescing_point,
            kwargs=dict(
                name=name,
                seed=seed,
                warmup_ns=warmup_ns,
                measure_ns=measure_ns,
                ping_duration_ns=ping_duration_ns,
            ),
        )
        for name in _variants()
    ]


def format_coalescing(results: Dict[str, CoalescingPoint]) -> str:
    """Render the results as a paper-style text table."""
    rows = [
        [
            p.config,
            f"{p.interrupt_exit_rate:.0f}",
            f"{p.total_exit_rate:.0f}",
            f"{100 * p.tig:.1f}%",
            f"{p.ping_mean_ms:.3f}",
        ]
        for p in results.values()
    ]
    return format_table(
        ["Config", "IRQ exits/s", "Total exits/s", "TIG", "Ping mean (ms)"],
        rows,
        title="Ablation: interrupt coalescing (vIC) vs ES2 — UDP receive + ping",
    )
