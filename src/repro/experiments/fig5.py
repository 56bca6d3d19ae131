"""Fig. 5 — breakdown of exit causes + TIG, sending/receiving streams.

A 1-vCPU VM sends or receives 1024-byte TCP/UDP streams under Baseline,
PI and PI+H.  Paper anchors: TCP send TIG 70% → 97.5% (PI+H); UDP send
68.5% → 99.7%; TCP receive 91.1% → 94.8% (PI) with the residual
I/O-instruction exits coming from ACK transmission; UDP receive ≥ 99%
under PI and PI+H.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.configs import paper_config
from repro.experiments.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS, MeasuredRun, measure_window
from repro.experiments.testbed import single_vcpu_testbed
from repro.metrics.report import format_table
from repro.parallel import SweepPoint
from repro.units import MS
from repro.workloads.netperf import (
    NetperfTcpReceive,
    NetperfTcpSend,
    NetperfUdpReceive,
    NetperfUdpSend,
)

__all__ = ["fig5_points", "format_fig5", "FIG5_CONFIGS", "FLOW_REDUCED"]

#: Reduced-mode window overrides for the DAG runner (repro.flow.tasks).
FLOW_REDUCED = dict(warmup_ns=20 * MS, measure_ns=60 * MS)

FIG5_CONFIGS = ("Baseline", "PI", "PI+H")


def _build_workload(tb, protocol: str, direction: str, payload_size: int):
    vmset = tb.tested
    if direction == "send":
        if protocol == "udp":
            return NetperfUdpSend(tb, vmset, payload_size=payload_size)
        return NetperfTcpSend(tb, vmset, payload_size=payload_size)
    if protocol == "udp":
        wl = NetperfUdpReceive(tb, vmset, payload_size=payload_size, rate_pps=250_000)
    else:
        wl = NetperfTcpReceive(tb, vmset, payload_size=payload_size)
    wl.start()
    return wl


def _fig5_cell(
    protocol: str,
    direction: str,
    name: str,
    seed: int,
    payload_size: int,
    warmup_ns: int,
    measure_ns: int,
) -> MeasuredRun:
    """One (protocol, direction, config) cell on a fresh testbed."""
    quota = 4 if protocol == "tcp" else 8
    tb = single_vcpu_testbed(paper_config(name, quota=quota), seed=seed)
    wl = _build_workload(tb, protocol, direction, payload_size)
    return measure_window(tb, wl, warmup_ns, measure_ns, config_name=name)


def fig5_points(
    seed: int = 1,
    payload_size: int = 1024,
    warmup_ns: int = DEFAULT_WARMUP_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
) -> List[SweepPoint]:
    """All (protocol, direction, config) cells of Fig. 5, keyed so."""
    return [
        SweepPoint(
            key=(protocol, direction, name),
            fn=_fig5_cell,
            kwargs=dict(
                protocol=protocol,
                direction=direction,
                name=name,
                seed=seed,
                payload_size=payload_size,
                warmup_ns=warmup_ns,
                measure_ns=measure_ns,
            ),
        )
        for protocol in ("tcp", "udp")
        for direction in ("send", "receive")
        for name in FIG5_CONFIGS
    ]


def format_fig5(results: Dict[Tuple[str, str, str], MeasuredRun]) -> str:
    """Render the results as a paper-style text table."""
    rows: List[list] = []
    for (protocol, direction, name), run in sorted(results.items()):
        r = run.exit_rates
        rows.append(
            [
                f"{protocol}-{direction}",
                name,
                f"{r.interrupt_delivery:.0f}",
                f"{r.interrupt_completion:.0f}",
                f"{r.io_request:.0f}",
                f"{r.others:.0f}",
                f"{run.total_exit_rate:.0f}",
                f"{100 * run.tig:.1f}%",
            ]
        )
    return format_table(
        ["Workload", "Config", "Ext-Int/s", "APIC/s", "I/O-instr/s", "Others/s", "Total/s", "TIG"],
        rows,
        title="Fig. 5: breakdown of VM exit causes and time-in-guest (1024B streams)",
    )
