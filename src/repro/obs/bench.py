"""The machine-readable bench report: the flow's ``bench`` task.

Runs the same reduced end-to-end sweep as the ``bench_smoke`` test marker
— single-vCPU TCP send (Table I shape), the UDP quota-8 hybrid point
(Fig. 4 shape) and a multiplexed ping latency point (Fig. 7 shape) — but
instead of asserting qualitative claims it *measures through the
observability layer* and returns a canonical, schema-versioned report:

* throughput (Gbps) and TIG per configuration,
* VM-exit rates, total and per paper category,
* ping latency percentiles (p50/p99) under vCPU multiplexing, with the
  per-stage event-path attribution (:mod:`repro.obs.pathreport`) measured
  on a spans-enabled run of the same point,
* the full per-subsystem counter snapshot (:class:`~repro.obs.CounterRegistry`),

so a regression of the simulated system becomes a diffable artifact in CI
rather than an anecdote.  ``flow run --only bench --bench-out F`` writes
it; the flow's ``bench-compare`` task gates it against
``BENCH_baseline.json`` and its ``dashboard`` task renders it.  The
report is a function of code and seed: it carries no wall-clock field,
so two runs write the same bytes.  How fast the simulator runs is
measured by ``perfbench/``.

Unlike the rest of :mod:`repro.obs`, this module imports the experiment
layer; it is deliberately **not** imported from ``repro.obs.__init__``.
"""

from __future__ import annotations

import platform
from typing import Any, Dict, Optional

from repro.core.configs import paper_config
from repro.experiments.runner import measure_window
from repro.experiments.testbed import multiplexed_testbed, single_vcpu_testbed
from repro.metrics.latency import LatencySeries
from repro.units import MS
from repro.workloads.netperf import NetperfTcpSend, NetperfUdpSend
from repro.workloads.ping import PingWorkload

__all__ = ["BENCH_SCHEMA_VERSION", "run_bench"]

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
BENCH_SCHEMA_VERSION = 7

#: Default windows — identical to ``tests/test_bench_smoke.py``.
DEFAULT_WARMUP_NS = 20 * MS
DEFAULT_MEASURE_NS = 60 * MS
DEFAULT_LATENCY_NS = 250 * MS
DEFAULT_SCHED_NS = 100 * MS
# The rack block's window is part of its simulated result: another value
# moves every rack metric in the report and the checked-in baseline.
DEFAULT_RACK_NS = 16 * MS
RACK_WARMUP_NS = 1 * MS

#: policies measured by the ``sched`` block
SCHED_ZOO_POLICIES = ("cfs", "rr", "mlfq", "deadline")

#: shard counts measured by the ``rack`` block: the simulated output must
#: be identical at both (the ``simulated_identical`` verdict)
RACK_SHARD_COUNTS = (1, 4)


#: Downsampling cap for timeline windows embedded in the report — keeps
#: the artifact diffable while preserving the steady-state shape.
TIMELINE_EMBED_WINDOWS = 60


def _slim_sample(sample) -> Dict[str, Any]:
    """A window's dict form with all-zero rates elided (artifact size)."""
    return {
        "t_start": sample.t_start,
        "t_end": sample.t_end,
        "rates": {k: v for k, v in sorted(sample.rates.items()) if v},
        "gauges": dict(sorted(sample.gauges.items())),
    }


def _timeline_block(tb, t_start: int, t_end: int,
                    vm_name: Optional[str] = None) -> Dict[str, Any]:
    """Summarize the testbed's timeline over ``[t_start, t_end]``.

    Returns the downsampled steady-state windows, the aggregate
    steady-state rates recomputed from summed deltas (so the figure is
    exact, not a mean of window rates), and the watchdog verdict.  The
    tested VM's total exit rate is surfaced as
    ``steady_state.exits_per_sec_total`` — the cross-check target for the
    dashboard and :mod:`repro.obs.bench_compare`.
    """
    from repro.obs.timeline import downsample

    tl = tb.sim.obs.timeline
    wd = tb.sim.obs.watchdog
    tl.stop()
    steady = tl.window(t_start, t_end)
    span_ns = t_end - t_start
    deltas: Dict[str, int] = {}
    for s in steady:
        for key, value in s.deltas.items():
            deltas[key] = deltas.get(key, 0) + value
    scale = 1e9 / span_ns if span_ns > 0 else 0.0
    vm_name = vm_name or tb.tested.vm.name
    exit_prefix = f"kvm.vm.{vm_name}.exits."
    exits_total = sum(v for k, v in deltas.items() if k.startswith(exit_prefix))
    return {
        "window_ns": tl.window_ns,
        "windows_total": len(tl.samples),
        "steady_windows": len(steady),
        "steady_state": {
            "t_start": t_start,
            "t_end": t_end,
            "exits_per_sec_total": exits_total * scale,
            "rates": {k: v * scale for k, v in sorted(deltas.items()) if v},
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
        "throughput_gbps": run.throughput_gbps,
        "tig": run.tig,
        "exits_per_sec": {"total": run.total_exit_rate, **run.exit_rates.as_dict()},
        "counters": tb.sim.obs.counters.flat(),
        "timeline": _timeline_block(tb, warmup_ns, warmup_ns + measure_ns),
        "sim": {"events_fired": tb.sim.events_fired},
    }


def _hybrid_point(seed: int, warmup_ns: int, measure_ns: int) -> Dict[str, Any]:
    """The Fig.-4 anchor: UDP I/O-instruction exits, baseline vs quota 8."""
    rates = {}
    for label, name, quota in (("baseline", "Baseline", None), ("quota8", "PI+H", 8)):
        feats = paper_config(name) if quota is None else paper_config(name, quota=quota)
        tb = single_vcpu_testbed(feats, seed=seed)
        wl = NetperfUdpSend(tb, tb.tested, n_streams=1, payload_size=256)
        run = measure_window(tb, wl, warmup_ns, measure_ns, config_name=name)
        rates[label] = {
            "io_exits_per_sec": run.exit_rates.io_request,
            "throughput_gbps": run.throughput_gbps,
        }
    base = rates["baseline"]["io_exits_per_sec"]
    hybrid = rates["quota8"]["io_exits_per_sec"]
    # None = the hybrid point eliminated I/O exits entirely (a finite
    # factor would be Infinity, which strict JSON cannot carry).
    rates["io_exit_reduction_factor"] = (base / hybrid) if hybrid > 0 else None
    return rates


def _latency_point(name: str, seed: int, duration_ns: int) -> Dict[str, Any]:
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
    tb.run_for(duration_ns)
    series = LatencySeries(wl.pinger.rtts_ns)
    path = build_path_report(collect_traces(tb.sim.trace).values())
    return {
        "samples": len(series),
        "mean_ms": series.mean_ms(),
        "p50_ms": series.percentile_ms(50),
        "p99_ms": series.percentile_ms(99),
        "max_ms": series.max_ms(),
        "path": path,
        "timeline": _timeline_block(tb, 0, duration_ns),
    }


def _sched_policy_point(
    policy: str, seed: int, duration_ns: int, adaptive: bool = False,
) -> Dict[str, Any]:
    """One scheduler-zoo ping point: full ES2 on a non-default policy."""
    from repro.config import SchedParams

    params = SchedParams(policy=policy, adaptive_alloc=adaptive)
    tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=seed, sched_params=params)
    wl = PingWorkload(tb, tb.tested, interval_ns=5 * MS)
    wl.start()
    tb.run_for(duration_ns)
    series = LatencySeries(wl.pinger.rtts_ns)
    point: Dict[str, Any] = {
        "samples": len(series),
        "mean_ms": series.mean_ms(),
        "p50_ms": series.percentile_ms(50),
        "p99_ms": series.percentile_ms(99),
        "max_ms": series.max_ms(),
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


def _rack_block(seed: int, measure_ns: int,
                warmup_ns: int = RACK_WARMUP_NS) -> Dict[str, Any]:
    """The sharded-rack block: same spec at 1 and N shards.

    The per-shard counter snapshots are merged deterministically (summed
    per key over hosts in sorted order); the ``simulated_identical``
    verdict asserts the byte-identity contract the determinism guard
    enforces on the raw digests.

    Since v6 the legs run with rack telemetry enabled — observer-only,
    so the digests stay comparable across shard counts *and* across
    bench revisions that ran without it — and the block carries the
    compact ``telemetry`` summary of the widest layout.
    """
    from repro.cluster import RackTelemetry, run_rack_once, simulated_digest
    from repro.experiments.rack import rack_spec

    spec = rack_spec(config="PI+H+R", application="memcached", seed=seed)
    points: Dict[str, Any] = {}
    digests = []
    last_report: Dict[str, Any] = {}
    for n_shards in RACK_SHARD_COUNTS:
        report = run_rack_once(spec, n_shards, measure_ns, warmup_ns=warmup_ns,
                               telemetry=RackTelemetry())
        last_report = report
        digests.append(simulated_digest(report))
        totals = report["simulated"]["totals"]
        counters: Dict[str, int] = {}
        for host in sorted(report["simulated"]["hosts"]):
            for key, value in report["simulated"]["hosts"][host].get(
                    "counters", {}).items():
                counters[key] = counters.get(key, 0) + value
        points[str(n_shards)] = {
            "ops_per_sec": totals["ops_per_sec"],
            "latency_mean_us": totals["latency_mean_us"],
            "events_fired": totals["events_fired"],
            "messages_cross_shard": report["perf"]["messages_cross_shard"],
            "barrier_rounds": report["perf"]["barrier_rounds"],
            "counters": counters,
            "shards": [
                {"shard": s["shard"], "hosts": s["hosts"],
                 "events_fired": s["events_fired"]}
                for s in report["perf"]["shards"]
            ],
        }
    return {
        "shard_counts": list(RACK_SHARD_COUNTS),
        "spec": {"n_hosts": spec.n_hosts, "n_client_hosts": spec.n_client_hosts,
                 "vms_per_host": spec.vms_per_host, "config": spec.config,
                 "application": spec.application, "seed": spec.seed,
                 "lookahead_ns": spec.lookahead_ns},
        "simulated_identical": len(set(digests)) == 1,
        "points": points,
        "telemetry": _rack_telemetry_summary(last_report),
    }


def _rack_telemetry_summary(report: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-embeddable core of one rack report's telemetry block.

    Keeps the simulated aggregates (path counts and RTT, stage shares,
    watchdog totals) and drops the raw marks/windows — a bench document
    must stay diff-sized — and the wall-clock barrier profile.
    """
    tel = report.get("telemetry")
    if not tel:
        return {}
    paths = tel["paths"]
    return {
        "paths": {
            "counts": dict(paths["counts"]),
            "rtt": dict(paths["rtt"]),
            "cross_host": dict(paths["cross_host"]),
            "stage_share": {name: s["share"]
                            for name, s in paths["stages"].items()},
        },
        "watchdog": dict(tel["watchdog"]),
    }


def run_bench(
    seed: int = 1,
    warmup_ns: int = DEFAULT_WARMUP_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
    latency_duration_ns: int = DEFAULT_LATENCY_NS,
    revision: str = "flow",
    sched_duration_ns: int = DEFAULT_SCHED_NS,
    rack_duration_ns: int = DEFAULT_RACK_NS,
) -> Dict[str, Any]:
    """Run the smoke sweep and return the full report as a dict."""
    throughput = {
        name: _throughput_point(name, seed, warmup_ns, measure_ns)
        for name in ("Baseline", "PI")
    }
    hybrid = _hybrid_point(seed, warmup_ns, measure_ns)
    latency = {
        name: _latency_point(name, seed, latency_duration_ns)
        for name in ("Baseline", "PI+H+R")
    }
    sched = {
        "policies": {
            policy: _sched_policy_point(policy, seed, sched_duration_ns)
            for policy in SCHED_ZOO_POLICIES
        },
        "adaptive": _sched_policy_point("cfs", seed, sched_duration_ns, adaptive=True),
    }
    rack = _rack_block(seed, rack_duration_ns)
    watchdog_violations = sum(
        p["timeline"]["watchdog"]["violations"]
        for p in (*throughput.values(), *latency.values())
    )
    report: Dict[str, Any] = {
        "schema": {"name": "repro-bench", "version": BENCH_SCHEMA_VERSION},
        "revision": revision,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "params": {
            "seed": seed,
            "warmup_ns": warmup_ns,
            "measure_ns": measure_ns,
            "latency_duration_ns": latency_duration_ns,
            "sched_duration_ns": sched_duration_ns,
            "rack_duration_ns": rack_duration_ns,
        },
        "throughput": throughput,
        "hybrid": hybrid,
        "latency_ms": latency,
        "sched": sched,
        "rack": rack,
        "watchdog_violations": watchdog_violations,
    }
    return report
