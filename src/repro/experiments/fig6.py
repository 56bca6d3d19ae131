"""Fig. 6 — Netperf TCP throughput under multiplexed vCPUs.

Four 4-vCPU VMs time-share four cores; the tested VM runs four netperf
threads sending (6a) or receiving (6b) TCP streams of several packet
sizes under all four configurations.  Paper shape: throughput grows with
packet size; sending gains come mostly from the hybrid scheme (up to
+40%) with redirection adding ~15%; receiving gains come mostly from
redirection (up to +50% over PI+H); full ES2 approaches 2x baseline.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.configs import PAPER_CONFIGS, paper_config
from repro.experiments.runner import measure_window
from repro.experiments.testbed import multiplexed_testbed
from repro.metrics.report import format_table
from repro.parallel import SweepPoint
from repro.units import MS
from repro.workloads.netperf import NetperfTcpReceive, NetperfTcpSend

__all__ = ["fig6_points", "format_fig6", "DEFAULT_PACKET_SIZES", "DEFAULT_WINDOW_BYTES",
           "FLOW_REDUCED"]

#: Reduced-mode overrides for the DAG runner: two packet sizes, short windows.
FLOW_REDUCED = dict(packet_sizes=(256, 1448), warmup_ns=30 * MS, measure_ns=60 * MS)

DEFAULT_PACKET_SIZES = (256, 512, 1024, 1448)
#: per-flow TCP window (Linux autotuning reaches MB-scale buffers)
DEFAULT_WINDOW_BYTES = 800_000


def _fig6_cell(
    direction: str,
    name: str,
    size: int,
    seed: int,
    warmup_ns: int,
    measure_ns: int,
    window_bytes: int,
) -> float:
    """Throughput of one (config, packet size) cell on a fresh testbed."""
    tb = multiplexed_testbed(paper_config(name, quota=4), seed=seed)
    if direction == "send":
        wl = NetperfTcpSend(
            tb, tb.tested, n_streams=4, payload_size=size, window_bytes=window_bytes
        )
    else:
        wl = NetperfTcpReceive(
            tb, tb.tested, n_streams=4, payload_size=size, window_bytes=window_bytes
        )
        wl.start()
    run = measure_window(tb, wl, warmup_ns, measure_ns, config_name=name)
    return run.throughput_gbps


def fig6_points(
    direction: str = "send",
    packet_sizes: Sequence[int] = DEFAULT_PACKET_SIZES,
    configs: Sequence[str] = PAPER_CONFIGS,
    seed: int = 3,
    warmup_ns: int = 300 * MS,
    measure_ns: int = 600 * MS,
    window_bytes: int = DEFAULT_WINDOW_BYTES,
) -> List[SweepPoint]:
    """One throughput (Gbps) cell per (config, packet size), keyed so."""
    if direction not in ("send", "receive"):
        raise ValueError("direction must be 'send' or 'receive'")
    return [
        SweepPoint(
            key=(name, size),
            fn=_fig6_cell,
            kwargs=dict(
                direction=direction,
                name=name,
                size=size,
                seed=seed,
                warmup_ns=warmup_ns,
                measure_ns=measure_ns,
                window_bytes=window_bytes,
            ),
        )
        for name in configs
        for size in packet_sizes
    ]


def format_fig6(results: Dict[Tuple[str, int], float], direction: str) -> str:
    """Render the results as a paper-style text table."""
    sizes = sorted({size for (_, size) in results})
    configs = [c for c in PAPER_CONFIGS if any(k[0] == c for k in results)]
    rows: List[list] = []
    for name in configs:
        rows.append([name] + [f"{results.get((name, s), float('nan')):.3f}" for s in sizes])
    gerund = "sending" if direction == "send" else "receiving"
    return format_table(
        ["Config"] + [f"{s}B" for s in sizes],
        rows,
        title=f"Fig. 6 ({gerund} TCP): throughput in Gbps by packet size",
    )
