"""Section VII evaluated: ES2's applicability to SR-IOV.

The paper argues (without measuring) that direct device assignment removes
the I/O-request exits by construction, that VT-d PI removes the
interrupt-related exits, and that intelligent redirection is still needed
because VT-d PI "may also suffer a severe latency from the vCPU
scheduling".  This experiment runs the multiplexed-vCPU testbed with an
assigned VF under three interrupt configurations and measures all three
claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.config import FeatureSet
from repro.experiments.runner import measure_window
from repro.experiments.testbed import Testbed
from repro.metrics.latency import LatencySeries
from repro.metrics.report import format_table
from repro.parallel import SweepPoint
from repro.units import MS, SEC
from repro.workloads.netperf import NetperfTcpSend
from repro.workloads.ping import PingWorkload

__all__ = ["SriovRun", "sriov_points", "format_sriov", "SRIOV_CONFIGS", "FLOW_REDUCED"]

#: Reduced-mode overrides for the DAG runner (repro.flow.tasks).
FLOW_REDUCED = dict(warmup_ns=30 * MS, measure_ns=60 * MS, ping_duration_ns=200 * MS)

#: Section VII configurations: assigned baseline / VT-d PI / VT-d PI + R.
SRIOV_CONFIGS: Dict[str, FeatureSet] = {
    "Assigned": FeatureSet(pi=False),
    "VT-d PI": FeatureSet(pi=True),
    "VT-d PI+R": FeatureSet(pi=True, redirect=True),
}


@dataclass
class SriovRun:
    config: str
    io_exit_rate: float
    interrupt_exit_rate: float
    tig: float
    throughput_gbps: float
    ping: LatencySeries


def _build(features: FeatureSet, seed: int, n_vms: int = 4, vcpus: int = 4) -> Testbed:
    tb = Testbed(seed=seed)
    for v in range(n_vms):
        pinning = [j % 4 for j in range(vcpus)]
        if v == 0:
            tb.add_sriov_vm(f"vm{v}", vcpus, features, vcpu_pinning=pinning)
        else:
            # Co-runners only burn CPU; give them ordinary paravirtual NICs.
            tb.add_vm(f"vm{v}", vcpus, features, vcpu_pinning=pinning, vhost_core=4 + v)
    tb.boot()
    return tb


def _sriov_point(
    name: str,
    features: FeatureSet,
    seed: int,
    warmup_ns: int,
    measure_ns: int,
    ping_duration_ns: int,
) -> SriovRun:
    """Throughput/exit measurement plus a separate ping-latency run."""
    tb = _build(features, seed)
    wl = NetperfTcpSend(tb, tb.tested, n_streams=4, payload_size=1024, window_bytes=800_000)
    run = measure_window(tb, wl, warmup_ns, measure_ns, config_name=name)

    tb2 = _build(features, seed)
    ping = PingWorkload(tb2, tb2.tested, interval_ns=10 * MS)
    ping.start()
    tb2.run_for(ping_duration_ns)

    return SriovRun(
        config=name,
        io_exit_rate=run.exit_rates.io_request,
        interrupt_exit_rate=run.exit_rates.interrupt_delivery
        + run.exit_rates.interrupt_completion,
        tig=run.tig,
        throughput_gbps=run.throughput_gbps,
        ping=LatencySeries(ping.pinger.rtts_ns),
    )


def sriov_points(
    seed: int = 3,
    warmup_ns: int = 300 * MS,
    measure_ns: int = 600 * MS,
    ping_duration_ns: int = int(1.2 * SEC),
) -> List[SweepPoint]:
    """The Section-VII experiment, one point per SR-IOV configuration."""
    return [
        SweepPoint(
            key=name,
            fn=_sriov_point,
            kwargs=dict(
                name=name,
                features=features,
                seed=seed,
                warmup_ns=warmup_ns,
                measure_ns=measure_ns,
                ping_duration_ns=ping_duration_ns,
            ),
        )
        for name, features in SRIOV_CONFIGS.items()
    ]


def format_sriov(results: Dict[str, SriovRun]) -> str:
    """Render the results as a paper-style text table."""
    rows: List[list] = []
    for name, r in results.items():
        rows.append(
            [
                name,
                f"{r.io_exit_rate:.0f}",
                f"{r.interrupt_exit_rate:.0f}",
                f"{100 * r.tig:.1f}%",
                f"{r.throughput_gbps:.3f}",
                f"{r.ping.percentile_ms(50):.3f}",
                f"{r.ping.mean_ms():.3f}",
            ]
        )
    return format_table(
        ["Config", "I/O exits/s", "IRQ exits/s", "TIG", "Gbps", "Ping p50 (ms)", "Ping mean (ms)"],
        rows,
        title="Section VII: ES2 applied to SR-IOV (multiplexed vCPUs, TCP send + ping)",
    )
