"""Fig. 8 — Memcached and Apache throughput under multiplexed vCPUs.

Paper anchors: Memcached — PI +18%, hybrid +21% more, full ES2 ≈ 1.8x
baseline; Apache — PI +19%, hybrid +18% more, full ES2 ≈ 2x baseline.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.configs import PAPER_CONFIGS, paper_config
from repro.experiments.testbed import multiplexed_testbed
from repro.metrics.report import format_table
from repro.parallel import SweepPoint
from repro.units import MS
from repro.workloads.apache import ApacheWorkload
from repro.workloads.memcached import MemcachedWorkload

__all__ = ["fig8_points", "format_fig8", "FLOW_REDUCED"]

#: Reduced-mode window overrides for the DAG runner (repro.flow.tasks).
FLOW_REDUCED = dict(warmup_ns=30 * MS, measure_ns=60 * MS)


def _fig8_point(
    application: str, name: str, seed: int, warmup_ns: int, measure_ns: int
) -> float:
    """Application throughput for one configuration on a fresh testbed."""
    quota = 8 if application == "memcached" else 4
    tb = multiplexed_testbed(paper_config(name, quota=quota), seed=seed)
    if application == "memcached":
        wl = MemcachedWorkload(tb, tb.tested)
    else:
        wl = ApacheWorkload(tb, tb.tested)
    wl.start()
    tb.run_for(warmup_ns)
    wl.mark()
    tb.run_for(measure_ns)
    if application == "memcached":
        return wl.ops_per_sec()
    return wl.requests_per_sec()


def fig8_points(
    application: str = "memcached",
    configs: Sequence[str] = PAPER_CONFIGS,
    seed: int = 3,
    warmup_ns: int = 300 * MS,
    measure_ns: int = 600 * MS,
) -> List[SweepPoint]:
    """One application throughput (ops/s or requests/s) per config, keyed so."""
    if application not in ("memcached", "apache"):
        raise ValueError("application must be 'memcached' or 'apache'")
    return [
        SweepPoint(
            key=name,
            fn=_fig8_point,
            kwargs=dict(
                application=application,
                name=name,
                seed=seed,
                warmup_ns=warmup_ns,
                measure_ns=measure_ns,
            ),
        )
        for name in configs
    ]


def format_fig8(results: Dict[str, float], application: str) -> str:
    """Render the results as a paper-style text table."""
    base = results.get("Baseline") or next(iter(results.values()))
    unit = "ops/s" if application == "memcached" else "req/s"
    rows = [
        [name, f"{value:.0f}", f"{value / base:.2f}x"]
        for name, value in results.items()
    ]
    return format_table(
        ["Config", f"Throughput ({unit})", "vs Baseline"],
        rows,
        title=f"Fig. 8 ({application}): throughput under multiplexed vCPUs",
    )
