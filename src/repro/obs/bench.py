"""The machine-readable bench report: the flow's ``bench-points`` sweep and
its ``bench`` assembly task.

Re-measures a reduced slice of the paper's event-path readouts through
the observability layer — single-vCPU TCP send (Table I shape), the UDP
quota-8 hybrid point (Fig. 4 shape) and a multiplexed ping latency point
(Fig. 7 shape) — plus the scheduler zoo and one adaptive-allocation
point.  :func:`bench_points` declares the 11 runs as sweep points, which
the flow runs as point tasks like every experiment's; :func:`bench_report`
assembles their merged results into a canonical, schema-versioned
summary and simulates nothing:

* throughput (Gbps) and TIG per configuration,
* VM-exit rates, total and per paper category, and the I/O-exit
  reduction of the hybrid quota-8 point,
* ping latency percentiles (p50/p99) under vCPU multiplexing, with the
  per-stage event-path attribution (:mod:`repro.obs.pathreport`) measured
  on a spans-enabled run of the same point,
* each timed point's steady-state exit rate and watchdog totals,

so a regression of the simulated system becomes a diffable artifact in CI
rather than an anecdote.  ``flow run --only bench --bench-out F`` writes
it; the flow's ``bench-compare`` task gates it against
``BENCH_baseline.json``.  The per-window series stay in the point
results: the flow's ``dashboard`` task draws them
(:func:`repro.obs.dashboard.render_dashboard` takes the points).  The
report is a function of code and seed: it carries no wall-clock field,
so two runs write the same bytes.  How fast the simulator runs is
measured by ``perfbench/``.

Unlike the rest of :mod:`repro.obs`, this module imports the experiment
layer; it is deliberately **not** imported from ``repro.obs.__init__``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.core.configs import paper_config
from repro.experiments.runner import measure_window
from repro.experiments.testbed import multiplexed_testbed, single_vcpu_testbed
from repro.metrics.latency import LatencySeries
from repro.parallel import SweepPoint
from repro.units import MS
from repro.workloads.netperf import NetperfTcpSend, NetperfUdpSend
from repro.workloads.ping import PingWorkload

__all__ = ["BENCH_SCHEMA_VERSION", "bench_points", "bench_report"]

#: Bump on any backwards-incompatible change to the report layout.
#: v2: latency points gained ``path`` (stage attribution + cohorts).
#: v3: points gained ``timeline`` (downsampled windowed telemetry +
#: steady-state aggregates + watchdog verdict); top-level ``profile``
#: carries the run-loop sim-gap histograms.
#: v4: top-level ``sched`` block — per-policy ping points (the scheduler
#: zoo) plus one adaptive-allocation point.  Additive: every v3 metric
#: keeps its path, so gated comparisons against v3 baselines still work.
#: v5: top-level ``rack`` block — the sharded multi-host run at 1 and 4
#: shards: aggregate + per-shard events/sec, cross-shard message counts,
#: barrier-wait fractions, the byte-identity verdict and the merged
#: per-host counter snapshot.  Additive again: v4 paths are unchanged.
#: v6: the rack legs run with rack telemetry enabled (observer-only: the
#: byte-identity verdict covers the instrumented runs) and the rack
#: block gains ``telemetry`` — stitched cross-shard path counts/RTT and
#: stage shares, rack-wide watchdog totals, and the barrier/straggler
#: profile of the widest layout.  Additive: every v5 path is unchanged.
#: v7: no wall-clock field and no run-loop profile: a function of code and seed.
#: v8: no ``rack`` block and no ``params.rack_duration_ns``: the flow's
#: ``rack`` sweep runs the rack grid, and its claims gate it.
#: v9: the summary only: no ``timeline.windows`` (the dashboard reads the
#: points), no ``steady_state.rates``, no throughput ``counters`` or
#: ``sim``, no ``host`` or ``revision``.  Every gated path is unchanged.
BENCH_SCHEMA_VERSION = 9

#: configurations of the throughput and latency points
THROUGHPUT_CONFIGS = ("Baseline", "PI")
LATENCY_CONFIGS = ("Baseline", "PI+H+R")
#: the hybrid pair: label -> (configuration, quota; None = its default)
HYBRID_CONFIGS = {"baseline": ("Baseline", None), "quota8": ("PI+H", 8)}
#: policies measured by the ``sched`` block
SCHED_ZOO_POLICIES = ("cfs", "rr", "mlfq", "deadline")


#: Downsampling cap for the timeline windows a point result carries —
#: enough for the dashboard's charts to keep the steady-state shape.
TIMELINE_EMBED_WINDOWS = 60


def _slim_sample(sample) -> Dict[str, Any]:
    """A window's dict form with all-zero rates elided (result size)."""
    return {
        "t_start": sample.t_start,
        "t_end": sample.t_end,
        "rates": {k: v for k, v in sorted(sample.rates.items()) if v},
        "gauges": dict(sorted(sample.gauges.items())),
    }


def _timeline_block(tb, t_start: int, t_end: int) -> Dict[str, Any]:
    """Summarize the testbed's timeline over ``[t_start, t_end]``.

    Returns the downsampled steady-state windows, the tested VM's total
    exit rate recomputed from summed deltas (so the figure is exact, not
    a mean of window rates) as ``steady_state.exits_per_sec_total`` — the
    cross-check target for the dashboard and :mod:`repro.obs.bench_compare`
    — and the watchdog verdict.
    """
    from repro.obs.timeline import downsample

    tl = tb.sim.obs.timeline
    wd = tb.sim.obs.watchdog
    tl.stop()
    steady = tl.window(t_start, t_end)
    span_ns = t_end - t_start
    scale = 1e9 / span_ns if span_ns > 0 else 0.0
    exit_prefix = f"kvm.vm.{tb.tested.vm.name}.exits."
    exits_total = sum(value for s in steady for key, value in s.deltas.items()
                      if key.startswith(exit_prefix))
    return {
        "window_ns": tl.window_ns,
        "windows_total": len(tl.samples),
        "steady_windows": len(steady),
        "steady_state": {
            "t_start": t_start,
            "t_end": t_end,
            "exits_per_sec_total": exits_total * scale,
        },
        "windows": [_slim_sample(s)
                    for s in downsample(steady, TIMELINE_EMBED_WINDOWS)],
        "watchdog": {
            "windows_checked": wd.windows_checked if wd is not None else 0,
            "violations": len(wd.violations) if wd is not None else 0,
        },
    }


def _throughput_point(name: str, seed: int, warmup_ns: int,
                      measure_ns: int) -> Dict[str, Any]:
    """One single-vCPU TCP-send configuration, measured through the obs layer."""
    tb = single_vcpu_testbed(paper_config(name, quota=4), seed=seed)
    tb.enable_timeline()
    wl = NetperfTcpSend(tb, tb.tested, n_streams=1, payload_size=1024)
    run = measure_window(tb, wl, warmup_ns, measure_ns, config_name=name)
    return {
        "params": {"seed": seed, "warmup_ns": warmup_ns, "measure_ns": measure_ns},
        "throughput_gbps": run.throughput_gbps,
        "tig": run.tig,
        "exits_per_sec": {"total": run.total_exit_rate, **run.exit_rates.as_dict()},
        "timeline": _timeline_block(tb, warmup_ns, warmup_ns + measure_ns),
    }


def _hybrid_point(label: str, seed: int, warmup_ns: int, measure_ns: int) -> Dict[str, Any]:
    """One side of the Fig.-4 anchor: UDP I/O-instruction exits, baseline
    or quota 8 (:data:`HYBRID_CONFIGS`)."""
    name, quota = HYBRID_CONFIGS[label]
    feats = paper_config(name) if quota is None else paper_config(name, quota=quota)
    tb = single_vcpu_testbed(feats, seed=seed)
    wl = NetperfUdpSend(tb, tb.tested, n_streams=1, payload_size=256)
    run = measure_window(tb, wl, warmup_ns, measure_ns, config_name=name)
    return {
        "params": {"seed": seed, "warmup_ns": warmup_ns, "measure_ns": measure_ns},
        "io_exits_per_sec": run.exit_rates.io_request,
        "throughput_gbps": run.throughput_gbps,
    }


def _ping_summary(wl) -> Dict[str, Any]:
    series = LatencySeries(wl.pinger.rtts_ns)
    return {
        "samples": len(series),
        "mean_ms": series.mean_ms(),
        "p50_ms": series.percentile_ms(50),
        "p99_ms": series.percentile_ms(99),
        "max_ms": series.max_ms(),
    }


def _latency_point(name: str, seed: int, latency_duration_ns: int) -> Dict[str, Any]:
    """One Fig.-7-shaped ping point: RTT percentiles under multiplexing.

    The run records per-request spans — an observers-only layer, so the
    measured RTT series is identical to a spans-off run (asserted by the
    test suite) — and folds the stage-by-stage attribution into the point.
    """
    from repro.obs.pathreport import build_path_report
    from repro.obs.spans import collect_traces

    tb = multiplexed_testbed(paper_config(name, quota=4), seed=seed)
    tb.sim.enable_spans()
    tb.enable_timeline()
    wl = PingWorkload(tb, tb.tested, interval_ns=5 * MS)
    wl.start()
    tb.run_for(latency_duration_ns)
    return {
        "params": {"seed": seed, "latency_duration_ns": latency_duration_ns},
        **_ping_summary(wl),
        "path": build_path_report(collect_traces(tb.sim.trace).values()),
        "timeline": _timeline_block(tb, 0, latency_duration_ns),
    }


def _sched_policy_point(
    policy: str, seed: int, sched_duration_ns: int, adaptive: bool = False,
) -> Dict[str, Any]:
    """One scheduler-zoo ping point: full ES2 on a non-default policy."""
    from repro.config import SchedParams

    params = SchedParams(policy=policy, adaptive_alloc=adaptive)
    tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=seed, sched_params=params)
    wl = PingWorkload(tb, tb.tested, interval_ns=5 * MS)
    wl.start()
    tb.run_for(sched_duration_ns)
    point: Dict[str, Any] = {
        "params": {"seed": seed, "sched_duration_ns": sched_duration_ns},
        **_ping_summary(wl),
    }
    if tb.adaptive is not None:
        point["adaptive"] = {
            "evaluations": tb.adaptive.evaluations,
            "rebalances": tb.adaptive.rebalances,
            "migrations": tb.adaptive.migrations,
            "backend_cores": [c.index for c in tb.adaptive.backend_cores],
            "vcpu_cores": [c.index for c in tb.adaptive.vcpu_cores],
        }
    return point


def bench_points(
    seed: int = 1,
    warmup_ns: int = 20 * MS,
    measure_ns: int = 60 * MS,
    latency_duration_ns: int = 250 * MS,
    sched_duration_ns: int = 100 * MS,
) -> List[SweepPoint]:
    """The bench's 11 runs, keyed ``(block, config)``.

    The default windows are the ones ``tests/test_bench_smoke.py`` uses.
    """
    window = dict(seed=seed, warmup_ns=warmup_ns, measure_ns=measure_ns)
    sched = dict(seed=seed, sched_duration_ns=sched_duration_ns)
    return [
        *(SweepPoint(("throughput", name), _throughput_point, dict(name=name, **window))
          for name in THROUGHPUT_CONFIGS),
        *(SweepPoint(("hybrid", label), _hybrid_point, dict(label=label, **window))
          for label in HYBRID_CONFIGS),
        *(SweepPoint(("latency", name), _latency_point,
                     dict(name=name, seed=seed, latency_duration_ns=latency_duration_ns))
          for name in LATENCY_CONFIGS),
        *(SweepPoint(("sched", policy), _sched_policy_point, dict(policy=policy, **sched))
          for policy in SCHED_ZOO_POLICIES),
        SweepPoint(("sched", "adaptive"), _sched_policy_point,
                   dict(policy="cfs", adaptive=True, **sched)),
    ]


def _summary(result: Mapping[str, Any]) -> Dict[str, Any]:
    """A point result as the report carries it: no params, no windows."""
    point = {k: v for k, v in result.items() if k != "params"}
    if "timeline" in point:
        point["timeline"] = {k: v for k, v in point["timeline"].items() if k != "windows"}
    return point


def bench_report(points: Mapping[Any, Mapping[str, Any]]) -> Dict[str, Any]:
    """The report for :func:`bench_points`' merged ``{key: result}``
    mapping (what ``run_sweep`` and the flow's ``bench-points`` task
    return).  Its ``params`` are the points' own, which must agree."""
    params: Dict[str, Any] = {}
    blocks: Dict[str, Dict[str, Any]] = {
        "throughput": {}, "hybrid": {}, "latency": {}, "sched": {}}
    for (block, name), result in points.items():
        for param, value in result["params"].items():
            if params.setdefault(param, value) != value:
                raise ValueError(f"bench points disagree on {param}: "
                                 f"{params[param]!r} != {value!r}")
        blocks[block][name] = _summary(result)
    hybrid = blocks["hybrid"]
    base = hybrid["baseline"]["io_exits_per_sec"]
    quota8 = hybrid["quota8"]["io_exits_per_sec"]
    # None = the hybrid point eliminated I/O exits entirely (a finite
    # factor would be Infinity, which strict JSON cannot carry).
    hybrid["io_exit_reduction_factor"] = (base / quota8) if quota8 > 0 else None
    sched = blocks["sched"]
    adaptive = sched.pop("adaptive")
    timed = (*blocks["throughput"].values(), *blocks["latency"].values())
    return {
        "schema": {"name": "repro-bench", "version": BENCH_SCHEMA_VERSION},
        "params": params,
        "throughput": blocks["throughput"],
        "hybrid": hybrid,
        "latency_ms": blocks["latency"],
        "sched": {"policies": sched, "adaptive": adaptive},
        "watchdog_violations": sum(p["timeline"]["watchdog"]["violations"] for p in timed),
    }
