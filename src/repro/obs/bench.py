"""The machine-readable benchmark pipeline: ``repro bench``.

Runs the same reduced end-to-end sweep as the ``bench_smoke`` test marker
— single-vCPU TCP send (Table I shape), the UDP quota-8 hybrid point
(Fig. 4 shape) and a multiplexed ping latency point (Fig. 7 shape) — but
instead of asserting qualitative claims it *measures through the
observability layer* and emits a canonical, schema-versioned
``BENCH_<rev>.json``:

* throughput (Gbps) and TIG per configuration,
* VM-exit rates, total and per paper category,
* ping latency percentiles (p50/p99) under vCPU multiplexing, with the
  per-stage event-path attribution (:mod:`repro.obs.pathreport`) measured
  on a spans-enabled run of the same point,
* the full per-subsystem counter snapshot (:class:`~repro.obs.CounterRegistry`),
* simulator wall-rate (events/second of host time) and the per-event-type
  profile (:class:`~repro.obs.EventProfiler`),

so a perf regression — simulated *or* of the simulator itself — becomes a
diffable artifact in CI rather than an anecdote.

Unlike the rest of :mod:`repro.obs`, this module imports the experiment
layer; it is deliberately **not** imported from ``repro.obs.__init__``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Optional

from repro.core.configs import paper_config
from repro.experiments.runner import measure_window
from repro.experiments.testbed import multiplexed_testbed, single_vcpu_testbed
from repro.metrics.latency import LatencySeries
from repro.units import MS
from repro.workloads.netperf import NetperfTcpSend, NetperfUdpSend
from repro.workloads.ping import PingWorkload

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "current_revision",
    "run_bench",
    "write_report",
    "format_bench",
    "main",
]

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
BENCH_SCHEMA_VERSION = 6

#: Default windows — identical to ``tests/test_bench_smoke.py``.
DEFAULT_WARMUP_NS = 20 * MS
DEFAULT_MEASURE_NS = 60 * MS
DEFAULT_LATENCY_NS = 250 * MS
DEFAULT_SCHED_NS = 100 * MS
# 16 ms keeps the 4-shard aggregate-rate scaling well clear of barrier-
# overhead noise (8 ms hovers at ~2.5x on a loaded runner; 16 ms is ~3x).
DEFAULT_RACK_NS = 16 * MS
RACK_WARMUP_NS = 1 * MS

#: policies measured by the ``sched`` block
SCHED_ZOO_POLICIES = ("cfs", "rr", "mlfq", "deadline")

#: shard counts measured by the ``rack`` block (the scaling comparison)
RACK_SHARD_COUNTS = (1, 4)


def current_revision() -> str:
    """Short VCS revision for the artifact name (env override: REPRO_REV)."""
    env = os.environ.get("REPRO_REV")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "dev"


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
    dashboard and ``scripts/bench_compare.py``.
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


def _throughput_point(
    name: str, seed: int, warmup_ns: int, measure_ns: int, profile: bool,
    profile_top: int = 8,
) -> Dict[str, Any]:
    """One single-vCPU TCP-send configuration, measured through the obs layer."""
    tb = single_vcpu_testbed(paper_config(name, quota=4), seed=seed)
    tb.enable_timeline()
    if profile:
        tb.sim.enable_profiling()
    wl = NetperfTcpSend(tb, tb.tested, n_streams=1, payload_size=1024)
    wall0 = time.perf_counter()
    run = measure_window(tb, wl, warmup_ns, measure_ns, config_name=name)
    wall = time.perf_counter() - wall0
    point: Dict[str, Any] = {
        "throughput_gbps": run.throughput_gbps,
        "tig": run.tig,
        "exits_per_sec": {"total": run.total_exit_rate, **run.exit_rates.as_dict()},
        "counters": tb.sim.obs.counters.flat(),
        "timeline": _timeline_block(tb, warmup_ns, warmup_ns + measure_ns),
        "sim": {
            "events_fired": tb.sim.events_fired,
            "wall_seconds": wall,
            "events_per_sec_wall": tb.sim.events_fired / wall if wall > 0 else 0.0,
        },
    }
    if profile:
        point["profile_top"] = tb.sim.obs.profiler.summary(top=profile_top)
        point["gap_histograms"] = tb.sim.obs.profiler.gap_histograms(top=profile_top)
    return point


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
    """The sharded-rack scaling block: same spec at 1 and N shards.

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
            "events_per_sec_wall": report["perf"]["events_per_sec_wall"],
            "aggregate_events_per_sec": report["perf"]["aggregate_events_per_sec"],
            "messages_cross_shard": report["perf"]["messages_cross_shard"],
            "barrier_rounds": report["perf"]["barrier_rounds"],
            "wall_seconds": report["perf"]["wall_seconds"],
            "counters": counters,
            "shards": [
                {
                    "shard": s["shard"],
                    "hosts": s["hosts"],
                    "events_fired": s["events_fired"],
                    "events_per_sec_wall": s["events_per_sec_wall"],
                    "barrier_wait_fraction": s["barrier_wait_fraction"],
                }
                for s in report["perf"]["shards"]
            ],
        }
    first, last = points[str(RACK_SHARD_COUNTS[0])], points[str(RACK_SHARD_COUNTS[-1])]
    base_rate = first["aggregate_events_per_sec"]
    return {
        "shard_counts": list(RACK_SHARD_COUNTS),
        "spec": {"n_hosts": spec.n_hosts, "n_client_hosts": spec.n_client_hosts,
                 "vms_per_host": spec.vms_per_host, "config": spec.config,
                 "application": spec.application, "seed": spec.seed,
                 "lookahead_ns": spec.lookahead_ns},
        "simulated_identical": len(set(digests)) == 1,
        "aggregate_speedup": last["aggregate_events_per_sec"] / base_rate
        if base_rate > 0 else 0.0,
        "points": points,
        "telemetry": _rack_telemetry_summary(last_report),
    }


def _rack_telemetry_summary(report: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-embeddable core of one rack report's telemetry block.

    Keeps the trajectory-worthy aggregates (path counts and RTT, stage
    shares, watchdog totals, barrier/straggler profile) and drops the
    raw marks/windows — a bench document must stay diff-sized.
    """
    tel = report.get("telemetry")
    if not tel:
        return {}
    paths = tel["paths"]
    barrier = tel["barrier"]
    return {
        "paths": {
            "counts": dict(paths["counts"]),
            "rtt": dict(paths["rtt"]),
            "cross_host": dict(paths["cross_host"]),
            "stage_share": {name: s["share"]
                            for name, s in paths["stages"].items()},
        },
        "watchdog": dict(tel["watchdog"]),
        "barrier": {
            "windows": barrier["windows"],
            "straggler_shard": barrier["straggler_shard"],
            "per_shard": [
                {"shard": s["shard"],
                 "bound_fraction": s["bound_fraction"],
                 "lookahead_utilization": s["lookahead_utilization"],
                 "window_wall_mean_us": s["window_wall_mean_us"]}
                for s in barrier["per_shard"]
            ],
        },
    }


def run_bench(
    seed: int = 1,
    warmup_ns: int = DEFAULT_WARMUP_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
    latency_duration_ns: int = DEFAULT_LATENCY_NS,
    profile: bool = True,
    revision: Optional[str] = None,
    profile_top: int = 8,
    sched_duration_ns: int = DEFAULT_SCHED_NS,
    rack_duration_ns: int = DEFAULT_RACK_NS,
) -> Dict[str, Any]:
    """Run the smoke sweep and return the full report as a dict."""
    wall0 = time.perf_counter()
    throughput = {
        name: _throughput_point(name, seed, warmup_ns, measure_ns,
                                profile=profile and name == "PI",
                                profile_top=profile_top)
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
    wall = time.perf_counter() - wall0
    total_events = sum(p["sim"]["events_fired"] for p in throughput.values())
    gap_histograms = {
        name: point.pop("gap_histograms")
        for name, point in throughput.items() if "gap_histograms" in point
    }
    watchdog_violations = sum(
        p["timeline"]["watchdog"]["violations"]
        for p in (*throughput.values(), *latency.values())
    )
    report: Dict[str, Any] = {
        "schema": {"name": "repro-bench", "version": BENCH_SCHEMA_VERSION},
        "revision": revision if revision is not None else current_revision(),
        "generated_unix": int(time.time()),
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
        "profile": {"gap_histograms": gap_histograms},
        "watchdog_violations": watchdog_violations,
        "wall_seconds": wall,
        "events_per_sec_wall": total_events / wall if wall > 0 else 0.0,
    }
    return report


def write_report(report: Dict[str, Any], path: Optional[str] = None) -> str:
    """Serialize the report to ``BENCH_<rev>.json`` (or ``path``); returns the path."""
    if path is None:
        path = f"BENCH_{report['revision']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def format_bench(report: Dict[str, Any]) -> str:
    """A short human-readable summary of one report (the JSON is canonical)."""
    lines = [
        f"bench report rev={report['revision']} "
        f"(schema v{report['schema']['version']}, seed={report['params']['seed']})",
    ]
    for name, point in report["throughput"].items():
        ex = point["exits_per_sec"]
        lines.append(
            f"  {name:<8} {point['throughput_gbps']:.3f} Gbps  TIG={point['tig']:.3f}  "
            f"exits/s={ex['total']:.0f}"
        )
    hybrid = report["hybrid"]
    factor = hybrid["io_exit_reduction_factor"]
    lines.append(
        f"  hybrid   io-exits/s {hybrid['baseline']['io_exits_per_sec']:.0f} -> "
        f"{hybrid['quota8']['io_exits_per_sec']:.0f} "
        + (f"({factor:.0f}x reduction at quota 8)" if factor is not None
           else "(eliminated at quota 8)")
    )
    for name, point in report["latency_ms"].items():
        lines.append(
            f"  ping {name:<8} p50={point['p50_ms']:.3f} ms  p99={point['p99_ms']:.3f} ms "
            f"({point['samples']} samples)"
        )
        path = point.get("path")
        if path and path["stages"]:
            top = sorted(path["stages"].items(), key=lambda kv: kv[1]["share"], reverse=True)[:3]
            shares = ", ".join(f"{s} {v['share']:.0%}" for s, v in top)
            lines.append(f"           top stages: {shares}")
    sched = report.get("sched")
    if sched:
        for policy, point in sorted(sched.get("policies", {}).items()):
            lines.append(
                f"  sched {policy:<9} p50={point['p50_ms']:.3f} ms  "
                f"p99={point['p99_ms']:.3f} ms ({point['samples']} samples)"
            )
        adaptive = sched.get("adaptive")
        if adaptive:
            stats = adaptive.get("adaptive", {})
            lines.append(
                f"  sched adaptive  p99={adaptive['p99_ms']:.3f} ms  "
                f"rebalances={stats.get('rebalances', 0)} "
                f"migrations={stats.get('migrations', 0)}"
            )
    rack = report.get("rack")
    if rack:
        for count in rack["shard_counts"]:
            point = rack["points"][str(count)]
            waits = [s["barrier_wait_fraction"] for s in point["shards"]]
            lines.append(
                f"  rack {count} shard(s)  agg {point['aggregate_events_per_sec']:,.0f} ev/s  "
                f"{point['ops_per_sec']:.0f} ops/s  "
                f"barrier-wait max {max(waits):.2f}  "
                f"cross msgs {point['messages_cross_shard']}"
            )
        lines.append(
            f"  rack scaling {rack['aggregate_speedup']:.2f}x aggregate, "
            f"simulated output "
            + ("identical across shard counts"
               if rack["simulated_identical"] else "DIVERGED across shard counts")
        )
        tel = rack.get("telemetry")
        if tel:
            counts = tel["paths"]["counts"]
            rtt = tel["paths"]["rtt"]
            barrier = tel["barrier"]
            lines.append(
                f"  rack telemetry  {counts['complete']}/{counts['total']} "
                f"stitched paths  rtt p50 {rtt['p50_us']:.0f} us  "
                f"p99 {rtt['p99_us']:.0f} us  "
                f"straggler shard {barrier['straggler_shard']}  "
                f"watchdog {tel['watchdog']['violations']} violation(s)"
            )
    violations = report.get("watchdog_violations")
    if violations is not None:
        lines.append(f"  watchdog {violations} violation(s) across timeline-checked points")
    lines.append(
        f"  simulator {report['events_per_sec_wall']:,.0f} events/s wall "
        f"({report['wall_seconds']:.1f} s total)"
    )
    return "\n".join(lines)


def format_profile(report: Dict[str, Any]) -> str:
    """Render the PI point's per-event-type profile (empty string if absent)."""
    prof = report.get("throughput", {}).get("PI", {}).get("profile_top")
    if not prof:
        return ""
    lines = ["  event-type profile (PI point, heaviest wall time first):"]
    lines.append(f"    {'event type':<48} {'count':>9} {'wall ms':>9} {'mean us':>9}")
    for key, entry in prof.items():
        lines.append(
            f"    {key:<48} {entry['count']:>9} "
            f"{entry['wall_total_ns'] / 1e6:>9.1f} {entry['wall_mean_ns'] / 1e3:>9.1f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    """Entry point of ``python -m repro bench``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the smoke sweep and emit a schema-versioned BENCH_<rev>.json",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warmup-ms", type=int, default=DEFAULT_WARMUP_NS // MS)
    parser.add_argument("--measure-ms", type=int, default=DEFAULT_MEASURE_NS // MS)
    parser.add_argument("--latency-ms", type=int, default=DEFAULT_LATENCY_NS // MS)
    parser.add_argument("--sched-ms", type=int, default=DEFAULT_SCHED_NS // MS,
                        help="per-policy window for the scheduler-zoo block")
    parser.add_argument("--rack-ms", type=int, default=DEFAULT_RACK_NS // MS,
                        help="measurement window for the sharded-rack block")
    parser.add_argument("--output", default=None, help="output path (default BENCH_<rev>.json)")
    parser.add_argument("--no-profile", action="store_true",
                        help="skip the per-event-type run-loop profile")
    parser.add_argument("--profile-top", type=int, default=0, metavar="N",
                        help="print the N heaviest event types from the run-loop "
                             "profile (implies profiling; default: report-only)")
    args = parser.parse_args(argv)
    if args.profile_top > 0 and args.no_profile:
        parser.error("--profile-top conflicts with --no-profile")
    report = run_bench(
        seed=args.seed,
        warmup_ns=args.warmup_ms * MS,
        measure_ns=args.measure_ms * MS,
        latency_duration_ns=args.latency_ms * MS,
        profile=not args.no_profile,
        profile_top=args.profile_top if args.profile_top > 0 else 8,
        sched_duration_ns=args.sched_ms * MS,
        rack_duration_ns=args.rack_ms * MS,
    )
    path = write_report(report, args.output)
    print(format_bench(report))
    if args.profile_top > 0:
        summary = format_profile(report)
        if summary:
            print(summary)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
