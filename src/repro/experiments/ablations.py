"""Ablation studies beyond the paper's figures.

These exercise the design choices DESIGN.md calls out:

* **redirection policy variants** — stickiness off (every interrupt re-picks
  the lightest online vCPU, losing cache affinity), offline prediction off
  (fall back to the affinity target when no vCPU is online), and PI+R
  without the hybrid scheme;
* **vCPU placement** — pinned stacking layout vs. free placement;
* **quota sensitivity** around the paper's selected values.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.config import FeatureSet
from repro.core.configs import paper_config
from repro.experiments.testbed import multiplexed_testbed
from repro.metrics.latency import LatencySeries
from repro.metrics.report import format_table
from repro.parallel import SweepPoint
from repro.units import MS, SEC
from repro.workloads.ping import PingWorkload

__all__ = ["redirect_policy_ablation_points", "format_redirect_ablation", "REDIRECT_VARIANTS",
           "FLOW_REDUCED"]

#: Reduced-mode overrides for the DAG runner (repro.flow.tasks).
FLOW_REDUCED = dict(duration_ns=250 * MS)

REDIRECT_VARIANTS: Dict[str, FeatureSet] = {
    "PI (no redirect)": paper_config("PI"),
    "PI+R": replace(paper_config("PI+H+R"), hybrid=False),
    "ES2 (full)": paper_config("PI+H+R"),
    "ES2 no-sticky": replace(paper_config("PI+H+R"), redirect_sticky=False),
    "ES2 no-prediction": replace(paper_config("PI+H+R"), redirect_offline_prediction=False),
}


def _ablation_point(
    name: str, feats: FeatureSet, seed: int, duration_ns: int, interval_ns: int
) -> LatencySeries:
    """Ping-RTT series for one policy variant on a fresh testbed."""
    tb = multiplexed_testbed(feats, seed=seed)
    wl = PingWorkload(tb, tb.tested, interval_ns=interval_ns)
    wl.start()
    tb.run_for(duration_ns)
    return LatencySeries(wl.pinger.rtts_ns)


def redirect_policy_ablation_points(
    variants: Dict[str, FeatureSet] = None,
    seed: int = 3,
    duration_ns: int = int(1.5 * SEC),
    interval_ns: int = 10 * MS,
) -> List[SweepPoint]:
    """One ping-RTT series per redirection policy variant, keyed by name."""
    if variants is None:
        variants = REDIRECT_VARIANTS
    return [
        SweepPoint(
            key=name,
            fn=_ablation_point,
            kwargs=dict(
                name=name,
                feats=feats,
                seed=seed,
                duration_ns=duration_ns,
                interval_ns=interval_ns,
            ),
        )
        for name, feats in variants.items()
    ]


def format_redirect_ablation(results: Dict[str, LatencySeries]) -> str:
    """Render the results as a paper-style text table."""
    rows = [
        [name, len(s), f"{s.mean_ms():.3f}", f"{s.percentile_ms(50):.3f}", f"{s.max_ms():.3f}"]
        for name, s in results.items()
    ]
    return format_table(
        ["Variant", "Samples", "Mean (ms)", "p50 (ms)", "Max (ms)"],
        rows,
        title="Ablation: redirection policy variants (ping RTT)",
    )
