"""Table I — breakdown of VM-exit causes, TCP sending, Baseline vs PI.

Paper values: Baseline 130,840 exits/s total (15.5% delivery / 29.3%
completion / 53.6% I/O request / 1.6% others); PI eliminates the interrupt
rows and *raises* the I/O-request rate by ~20% (70,082 → 85,018) because
the freed CPU sends more packets.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.configs import paper_config
from repro.experiments.runner import DEFAULT_MEASURE_NS, DEFAULT_WARMUP_NS, MeasuredRun, measure_window
from repro.experiments.testbed import single_vcpu_testbed
from repro.metrics.report import format_table
from repro.parallel import SweepPoint
from repro.units import MS
from repro.workloads.netperf import NetperfTcpSend

__all__ = ["table1_points", "format_table1", "FLOW_REDUCED"]

#: Reduced-mode window overrides for the DAG runner (repro.flow.tasks).
FLOW_REDUCED = dict(warmup_ns=20 * MS, measure_ns=60 * MS)


def _table1_point(
    name: str, seed: int, warmup_ns: int, measure_ns: int, payload_size: int
) -> MeasuredRun:
    """One Table-I configuration on a fresh testbed."""
    tb = single_vcpu_testbed(paper_config(name, quota=4), seed=seed)
    wl = NetperfTcpSend(tb, tb.tested, n_streams=1, payload_size=payload_size)
    return measure_window(tb, wl, warmup_ns, measure_ns, config_name=name)


def table1_points(
    seed: int = 1,
    warmup_ns: int = DEFAULT_WARMUP_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
    payload_size: int = 1024,
) -> List[SweepPoint]:
    """The Table-I grid: one point per config, keyed by config name."""
    return [
        SweepPoint(
            key=name,
            fn=_table1_point,
            kwargs=dict(
                name=name,
                seed=seed,
                warmup_ns=warmup_ns,
                measure_ns=measure_ns,
                payload_size=payload_size,
            ),
        )
        for name in ("Baseline", "PI")
    ]


def format_table1(results: Dict[str, MeasuredRun]) -> str:
    """Render the results as a paper-style text table."""
    rows: List[list] = []
    base = results["Baseline"].exit_rates
    pct = base.percentages()
    rows.append(
        ["Baseline (%)"]
        + [f"{pct[c]:.1f}%" for c in ("interrupt-delivery", "interrupt-completion", "io-request", "others")]
    )
    for name in ("Baseline", "PI"):
        r = results[name].exit_rates
        rows.append(
            [f"{name} (Exits/s)", f"{r.interrupt_delivery:.0f}", f"{r.interrupt_completion:.0f}",
             f"{r.io_request:.0f}", f"{r.others:.0f}"]
        )
    return format_table(
        ["VM Exit Causes", "Interrupt Delivery", "Interrupt Completion", "Guest's I/O Request", "Others"],
        rows,
        title="Table I: breakdown of VM exit causes (TCP sending)",
    )
