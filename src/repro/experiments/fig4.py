"""Fig. 4 — reduction of I/O-instruction exits vs. the quota value.

A 1-vCPU VM sends UDP (Fig. 4a) or TCP (Fig. 4b) streams; each quota value
is compared against the no-hybrid baseline.  Paper shape: monotone decline
with quota; UDP is negligible (<0.1k/s) at quota 8 and below; TCP needs
quota ≤ 4; very small quotas cost throughput to handler switching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.configs import paper_config
from repro.experiments.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS, measure_window
from repro.experiments.testbed import single_vcpu_testbed
from repro.metrics.report import format_table
from repro.parallel import SweepPoint
from repro.units import MS
from repro.workloads.netperf import NetperfTcpSend, NetperfUdpSend

__all__ = ["QuotaPoint", "fig4_points", "format_fig4", "FLOW_REDUCED"]

DEFAULT_QUOTAS = (64, 32, 16, 8, 4, 2)

#: Reduced-mode overrides for the DAG runner (``repro flow run --mode
#: reduced``): trimmed quota grid + short windows.  Full mode uses the
#: paper defaults (``python -m repro flow run``).
FLOW_REDUCED = dict(quotas=(16, 4), warmup_ns=20 * MS, measure_ns=60 * MS)


@dataclass
class QuotaPoint:
    quota: Optional[int]  #: None = baseline (no hybrid)
    io_exit_rate: float
    total_exit_rate: float
    throughput_gbps: float


def _fig4_point(
    protocol: str,
    payload_size: int,
    quota: Optional[int],
    seed: int,
    warmup_ns: int,
    measure_ns: int,
) -> QuotaPoint:
    """One (protocol, quota) cell: a fresh testbed, fully self-contained."""
    name = "Baseline" if quota is None else "PI+H"
    feats = paper_config(name) if quota is None else paper_config(name, quota=quota)
    tb = single_vcpu_testbed(feats, seed=seed)
    if protocol == "udp":
        wl = NetperfUdpSend(tb, tb.tested, n_streams=1, payload_size=payload_size)
    else:
        wl = NetperfTcpSend(tb, tb.tested, n_streams=1, payload_size=payload_size)
    run = measure_window(tb, wl, warmup_ns, measure_ns, config_name=name)
    return QuotaPoint(
        quota=quota,
        io_exit_rate=run.exit_rates.io_request,
        total_exit_rate=run.total_exit_rate,
        throughput_gbps=run.throughput_gbps,
    )


def fig4_points(
    protocol: str = "udp",
    payload_size: Optional[int] = None,
    quotas: Sequence[int] = DEFAULT_QUOTAS,
    seed: int = 1,
    warmup_ns: int = DEFAULT_WARMUP_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
) -> List[SweepPoint]:
    """The quota grid for one protocol, keyed by quota; the first point,
    key ``None``, is the baseline."""
    if protocol not in ("udp", "tcp"):
        raise ValueError("protocol must be 'udp' or 'tcp'")
    if payload_size is None:
        payload_size = 256 if protocol == "udp" else 1448
    return [
        SweepPoint(
            key=quota,
            fn=_fig4_point,
            kwargs=dict(
                protocol=protocol,
                payload_size=payload_size,
                quota=quota,
                seed=seed,
                warmup_ns=warmup_ns,
                measure_ns=measure_ns,
            ),
        )
        for quota in (None, *quotas)
    ]


def format_fig4(results: Dict[Optional[int], QuotaPoint], protocol: str) -> str:
    """Render the results as a paper-style text table."""
    rows = [
        [
            "baseline" if p.quota is None else f"quota={p.quota}",
            f"{p.io_exit_rate:.0f}",
            f"{p.total_exit_rate:.0f}",
            f"{p.throughput_gbps:.3f}",
        ]
        for p in results.values()
    ]
    return format_table(
        ["Configuration", "I/O-instr exits/s", "Total exits/s", "Throughput (Gbps)"],
        rows,
        title=f"Fig. 4 ({protocol.upper()} sending): I/O-instruction exits vs quota",
    )
