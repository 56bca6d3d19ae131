"""Reduced scheduler-zoo sweep: end-to-end smoke with artifact export.

Marker-gated (``sched_sweep``) so CI can run it as its own job via
``make sched-sweep``; it also runs in the plain tier-1 suite, so the grid
here is deliberately tiny.  When ``REPRO_SCHED_SWEEP_ARTIFACT`` names a
path, the JSON summary is written there for CI artifact upload.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.schedzoo import (
    format_sched_sweep,
    sched_sweep_points,
    sched_sweep_summary,
)
from repro.parallel import run_sweep
from repro.units import MS

pytestmark = pytest.mark.sched_sweep


def test_sched_sweep_smoke():
    policies = ("cfs", "rr")
    modes = ("off", "on")
    results = run_sweep(sched_sweep_points(
        policies=policies,
        modes=modes,
        adaptive=(False,),
        seed=3,
        duration_ns=150 * MS,
        interval_ns=10 * MS,
    ))
    assert set(results) == {(p, m, "static") for p in policies for m in modes}
    for point in results.values():
        assert point["samples"] > 0
        assert 0.0 < point["p50_ms"] <= point["p99_ms"] <= point["max_ms"]
        assert len(point["rtt_ms"]) == point["samples"] or len(point["rtt_ms"]) == 200

    # rendering works and mentions every policy
    text = format_sched_sweep(results)
    for p in policies:
        assert p in text

    summary = sched_sweep_summary(results)
    assert set(summary) == set(policies)
    for p in policies:
        assert set(summary[p]) == set(modes)
        for mode in modes:
            assert "rtt_ms" not in summary[p][mode]

    artifact = os.environ.get("REPRO_SCHED_SWEEP_ARTIFACT")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)


def test_adaptive_cell_reports_controller_stats():
    results = run_sweep(sched_sweep_points(
        policies=("cfs",),
        modes=("on",),
        adaptive=(True,),
        seed=3,
        duration_ns=100 * MS,
        interval_ns=10 * MS,
    ))
    point = results[("cfs", "on", "adaptive")]
    stats = point["adaptive_stats"]
    assert stats["evaluations"] > 0
    assert set(stats["backend_cores"]).isdisjoint(stats["vcpu_cores"])
