"""Rack-scale observability: stitching, aggregation, and barrier profiling.

The sharded rack (:mod:`repro.cluster`) runs each host on a private
simulator, possibly in another process — so every observability layer
built for the single box (spans, timeline, watchdog) produces
*per-host* data marooned inside a shard.  This module is the coordinator
side that puts the rack-wide picture back together:

* **cross-shard span stitching** — hosts record span marks under
  host-scoped context ids (``"c0#17"``), ``Packet.ctx`` rides the
  cross-shard messages, and the uplink/fabric add ``xshard_tx`` /
  ``xshard_rx`` milestones.  Because every host simulator advances to
  the *same* global barrier times, mark timestamps are directly
  comparable across hosts: :func:`stitch_marks` merges each context's
  marks from every host into one end-to-end :class:`StitchedTrace`
  whose telescoping stages still sum exactly to the client-observed RTT.
* **per-shard telemetry aggregation** — shards ship span marks, timeline
  windows (only the counter deltas of the headline rate families, see
  :func:`family_deltas`) and watchdog verdicts over the barrier pipes at
  finish, and the coordinator keeps those per-host bundles
  (``ShardedSimulator.host_telemetry``); :func:`aggregate_timelines`
  reduces each host's windows to its steady rates per headline family.
* **barrier/straggler profiling** — each barrier reply piggybacks the
  shard's window wall time and cumulative event count;
  :func:`barrier_profile` turns those into per-shard barrier-wait
  fractions, lookahead utilization, and straggler attribution (which
  shard bounded each window) — the numbers that decide whether the next
  10x is a faster event core or more shards.
* **surfacing** — a text report and a self-contained rack dashboard,
  both rendered from the report's compact ``telemetry`` block, and a
  merged Perfetto export (one track group per shard plus stitched-path
  and cross-shard fabric tracks), the one view that reads the raw
  per-host bundles.

Everything here consumes *plain data* (tuples, dicts) shipped from the
shards — this module never imports :mod:`repro.cluster`, so the cluster
layer can import it without a cycle.  And everything upstream of it is
an observer: the rack's ``simulated`` block is byte-identical with
telemetry on or off (the determinism guard asserts this at 1/2/4
shards).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.pathreport import build_path_report, format_path_report
from repro.obs.spans import Mark, PathTrace

__all__ = [
    "StitchedTrace",
    "stitch_marks",
    "stitched_path_report",
    "aggregate_timelines",
    "family_deltas",
    "barrier_profile",
    "build_rack_telemetry",
    "rack_perfetto_trace",
    "format_rack_telemetry",
    "render_rack_dashboard",
]

#: shipped span mark: (t, ctx, point, attrs)
ShippedMark = Tuple[int, Any, str, Dict[str, Any]]

#: Synthetic pids for the merged Perfetto document's track groups.
PID_STITCHED = 1
PID_FABRIC = 2
PID_BARRIER = 3
#: shard *s*'s telemetry track group gets ``PID_SHARD_BASE + s``.
PID_SHARD_BASE = 100

#: Headline counter-rate families for the rack-wide timeline view.
#: Matched against flat counter keys (``path.name``); order is render order.
RATE_FAMILIES: Tuple[str, ...] = (
    "vm_exits", "irq_delivered", "irq_redirected", "net_tx_pkts",
    "net_rx_pkts", "vhost_rounds",
)


def _family_of(key: str) -> Optional[str]:
    """Map one flat counter key to its rack rate family (None = untracked)."""
    if key.startswith("kvm.exits."):
        return "vm_exits"
    if key == "kvm.router.delivered":
        return "irq_delivered"
    if key == "kvm.router.redirected":
        return "irq_redirected"
    if key.endswith("/tx.packets"):
        return "net_tx_pkts"
    if key.endswith("/rx.packets"):
        return "net_rx_pkts"
    if key.startswith("vhost.worker.") and key.endswith(".rounds"):
        return "vhost_rounds"
    return None


def family_deltas(deltas: Dict[str, int]) -> List[Tuple[str, int]]:
    """``[(family, delta), ...]`` for the counter deltas of one timeline
    window that map to a rate family, in ``deltas`` order.

    That is all the rack's readers use of a window, so a shard ships only
    this (``Shard.host_telemetry``).  Keeping the key order keeps the
    readers' floating-point sums, and so their output, unchanged.
    """
    out = []
    for key, delta in deltas.items():
        family = _family_of(key)
        if family is not None:
            out.append((family, delta))
    return out


# ---------------------------------------------------------------- stitching
class StitchedTrace(PathTrace):
    """A PathTrace whose marks came from several hosts' recorders.

    Differs from the single-host trace in one rule: only ``delivered``
    (the client host took the final response segment) terminates a rack
    round trip.  ``sock_deliver`` is a *mid-path* milestone here — the
    server guest consuming the request — so a trace ending there is a
    request still being served at the horizon, not a complete path.
    """

    __slots__ = ()

    @property
    def complete(self) -> bool:
        return (
            len(self.marks) >= 2
            and self.marks[0].point == "origin"
            and self.marks[-1].point == "delivered"
        )

    def hosts(self) -> List[str]:
        """Hosts that recorded at least one of this trace's marks, in
        first-touch order."""
        seen: List[str] = []
        for mark in self.marks:
            host = mark.attrs.get("shard_host")
            if host is not None and host not in seen:
                seen.append(host)
        return seen


def stitch_marks(host_marks: Dict[str, List[ShippedMark]],
                 host_order: Sequence[str]) -> Dict[Any, StitchedTrace]:
    """Merge per-host span marks into end-to-end traces, keyed by context.

    Hosts advance to common barrier times from a common t=0, so mark
    timestamps are globally comparable; the merge sorts by ``(t, host
    rank, per-host record index)`` — a total order that is independent
    of the shard layout, because each host's mark stream is itself
    layout-invariant.  Each mark gets a ``shard_host`` attribute naming
    the recording host.
    """
    rank = {host: i for i, host in enumerate(host_order)}
    decorated: List[Tuple[int, int, int, Any, str, Dict[str, Any], str]] = []
    for host, marks in host_marks.items():
        r = rank.get(host, len(rank))
        for idx, (t, ctx, point, attrs) in enumerate(marks):
            decorated.append((t, r, idx, ctx, point, attrs, host))
    decorated.sort(key=lambda m: (m[0], m[1], m[2]))
    traces: Dict[Any, StitchedTrace] = {}
    for t, _r, _idx, ctx, point, attrs, host in decorated:
        trace = traces.get(ctx)
        if trace is None:
            trace = traces[ctx] = StitchedTrace(ctx)
        merged = dict(attrs)
        merged.setdefault("shard_host", host)
        trace.marks.append(Mark(t, point, merged))
    return traces


def stitched_path_report(traces: Iterable[StitchedTrace]) -> Dict[str, Any]:
    """The stage-attribution report plus rack-specific path counts."""
    traces = list(traces)
    report = build_path_report(traces)
    complete = [t for t in traces if t.complete]
    multi = [t for t in complete if len(t.hosts()) > 1]
    hops = [sum(1 for m in t.marks if m.point == "xshard_tx") for t in complete]
    report["cross_host"] = {
        "complete_multi_host": len(multi),
        "hosts_touched_max": max((len(t.hosts()) for t in complete), default=0),
        "xshard_hops_mean": (sum(hops) / len(hops)) if hops else 0.0,
        # every stitched trace telescopes by construction; count the ones
        # whose stage sum exactly equals the end-to-end total as a
        # self-check surfaced in reports (always == complete)
        "telescoping_exact": sum(
            1 for t in complete
            if sum(s.duration for s in t.stages()) == t.total_ns
        ),
    }
    return report


# ------------------------------------------------------------- aggregation
def aggregate_timelines(host_timelines: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Per-host steady rates of the headline families: ``{"steady": {host:
    {family: rate/s}}}``.

    ``host_timelines`` is the shipped form (``{host: {"windows":
    [{t_start, t_end, families}]}}``, ``families`` as
    :func:`family_deltas` returns it).  A host's deltas are summed by rate
    family over all its windows and divided by their total span (never a
    mean of per-window rates).
    """
    steady: Dict[str, Dict[str, float]] = {}
    for host, tl in sorted(host_timelines.items()):
        windows = tl.get("windows", [])
        if not windows:
            continue
        totals: Dict[str, int] = {}
        span = 0
        for win in windows:
            span += win["t_end"] - win["t_start"]
            for family, delta in win["families"]:
                totals[family] = totals.get(family, 0) + delta
        scale = 1e9 / span if span > 0 else 0.0
        steady[host] = {fam: d * scale for fam, d in sorted(totals.items())}
    return {"steady": steady}


# ------------------------------------------------------- barrier profiling
def barrier_profile(window_records: Sequence[Sequence[Dict[str, float]]],
                    partitions: Sequence[Sequence[str]],
                    lookahead_ns: int,
                    max_buckets: int = 60) -> Dict[str, Any]:
    """Per-window straggler attribution from the piggybacked barrier stats.

    ``window_records[s][k]`` is shard *s*'s record for window *k*:
    ``{"wall_s", "events" (cumulative), "wait_s"}``.  The shard with the
    largest compute wall bounds the window (everyone else waits at the
    barrier for it); ``lookahead utilization`` is the fraction of windows
    in which a shard actually fired events — idle windows are pure
    synchronization overhead, the cost of conservative lookahead.
    """
    n_shards = len(window_records)
    n_windows = min((len(r) for r in window_records), default=0)
    per_shard: List[Dict[str, Any]] = []
    bound_counts = [0] * n_shards
    window_walls: List[List[float]] = [[] for _ in range(n_shards)]
    busy_counts = [0] * n_shards
    for s in range(n_shards):
        prev_events = 0.0
        for k in range(n_windows):
            rec = window_records[s][k]
            window_walls[s].append(rec["wall_s"])
            if rec["events"] > prev_events:
                busy_counts[s] += 1
            prev_events = rec["events"]
    for k in range(n_windows):
        walls = [window_walls[s][k] for s in range(n_shards)]
        bound_counts[walls.index(max(walls))] += 1
    critical_wall_s = sum(max(window_walls[s][k] for s in range(n_shards))
                          for k in range(n_windows)) if n_windows else 0.0
    for s in range(n_shards):
        walls = window_walls[s]
        total_wall = sum(walls)
        total_wait = sum(window_records[s][k].get("wait_s", 0.0)
                         for k in range(n_windows))
        per_shard.append({
            "shard": s,
            "hosts": list(partitions[s]) if s < len(partitions) else [],
            "windows_bound": bound_counts[s],
            "bound_fraction": bound_counts[s] / n_windows if n_windows else 0.0,
            "busy_windows": busy_counts[s],
            "lookahead_utilization": busy_counts[s] / n_windows if n_windows else 0.0,
            "window_wall_mean_us": (total_wall / n_windows * 1e6) if n_windows else 0.0,
            "window_wall_max_us": max(walls) * 1e6 if walls else 0.0,
            "barrier_wait_s": total_wait,
        })
    straggler = max(range(n_shards), key=lambda s: bound_counts[s], default=None) \
        if n_shards else None

    # Heat map: per-shard mean window wall (µs) over <= max_buckets
    # equal-count window buckets — the dashboard's barrier-wait heat rows.
    heat: List[Dict[str, Any]] = []
    if n_windows:
        per_bucket = max(1, -(-n_windows // max_buckets))
        for i in range(0, n_windows, per_bucket):
            j = min(i + per_bucket, n_windows)
            heat.append({
                "window_start": i,
                "window_end": j,
                "t_start_ns": i * lookahead_ns,
                "t_end_ns": j * lookahead_ns,
                "wall_us": [sum(window_walls[s][i:j]) / (j - i) * 1e6
                            for s in range(n_shards)],
            })
    return {
        "windows": n_windows,
        "lookahead_ns": lookahead_ns,
        "straggler_shard": straggler,
        "critical_wall_s": critical_wall_s,
        "per_shard": per_shard,
        "heat": heat,
    }


# ------------------------------------------------------------ block builder
def build_rack_telemetry(config: Dict[str, Any],
                         host_bundles: Dict[str, Dict[str, Any]],
                         host_order: Sequence[str],
                         window_records: Sequence[Sequence[Dict[str, float]]],
                         partitions: Sequence[Sequence[str]],
                         lookahead_ns: int) -> Dict[str, Any]:
    """Assemble the report's ``telemetry`` block from shipped shard data.

    Only the compact analytical view (paths, per-host steady rates,
    watchdog, barrier profile): the raw marks and windows stay with the
    caller, which keeps them for :func:`rack_perfetto_trace`.
    """
    host_marks = {h: b["span_marks"] for h, b in host_bundles.items()
                  if "span_marks" in b}
    traces = stitch_marks(host_marks, host_order)
    host_timelines = {h: b["timeline"] for h, b in host_bundles.items()
                      if "timeline" in b}
    per_host: Dict[str, Dict[str, Any]] = {}
    watchdog_totals = {"windows_checked": 0, "violations": 0}
    for host in sorted(host_bundles):
        bundle = host_bundles[host]
        entry: Dict[str, Any] = {}
        if "span_stats" in bundle:
            entry["spans"] = bundle["span_stats"]
        if "watchdog" in bundle:
            wd = bundle["watchdog"]
            entry["watchdog"] = {
                "windows_checked": wd["windows_checked"],
                "violations": len(wd["violations"]),
            }
            watchdog_totals["windows_checked"] += wd["windows_checked"]
            watchdog_totals["violations"] += len(wd["violations"])
        per_host[host] = entry
    return {
        "config": dict(config),
        "paths": stitched_path_report(traces.values()),
        "timeline": aggregate_timelines(host_timelines),
        "watchdog": watchdog_totals,
        "per_host": per_host,
        "barrier": barrier_profile(window_records, partitions, lookahead_ns),
    }


# ----------------------------------------------------------------- perfetto
# The render kit is imported inside each exporter, not at module level:
# repro.cluster imports this module, and the kit's html import stays off
# every simulator's import path.
def _stitched_events(traces: Dict[Any, StitchedTrace]) -> List[Dict[str, Any]]:
    from repro.obs.render import complete, meta

    events: List[Dict[str, Any]] = [meta(PID_STITCHED, "rack: stitched event paths")]
    for tid, ctx in enumerate(sorted(traces, key=str), start=1):
        trace = traces[ctx]
        if len(trace.marks) < 2:
            continue
        hosts = trace.hosts()
        events.append(meta(PID_STITCHED, f"req {ctx}", tid=tid))
        events.append(complete(
            f"request/{trace.kind or 'truncated'}", "span", trace.start, trace.total_ns,
            PID_STITCHED, tid, {"ctx": str(ctx), "complete": trace.complete,
                                "hosts": hosts}))
        for stage in trace.stages():
            events.append(complete(stage.name, "span", stage.start, stage.duration,
                                   PID_STITCHED, tid,
                                   {"point": stage.point, **stage.attrs}))
    return events


def _fabric_events(traces: Dict[Any, StitchedTrace]) -> List[Dict[str, Any]]:
    """One track per directed host hop; an X span per fabric transit."""
    from repro.obs.render import complete, meta

    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}

    def tid_of(key: str) -> int:
        if key not in tids:
            tids[key] = len(tids) + 1
            events.append(meta(PID_FABRIC, key, tid=tids[key]))
        return tids[key]

    for ctx in sorted(traces, key=str):
        trace = traces[ctx]
        pending: Optional[Mark] = None
        for mark in trace.marks:
            if mark.point == "xshard_tx":
                pending = mark
            elif mark.point == "xshard_rx" and pending is not None:
                src = pending.attrs.get("src", pending.attrs.get("shard_host", "?"))
                dst = mark.attrs.get("shard_host", "?")
                events.append(complete(f"transit {src}->{dst}", "rack", pending.t,
                                       mark.t - pending.t, PID_FABRIC,
                                       tid_of(f"{src} -> {dst}"), {"ctx": str(ctx)}))
                pending = None
    if events:
        events.insert(0, meta(PID_FABRIC, "rack: cross-shard fabric"))
    return events


def _shard_group_events(host_timelines: Dict[str, Dict[str, Any]],
                        partitions: Sequence[Sequence[str]]) -> List[Dict[str, Any]]:
    """Per-shard track groups: host rate-family counter tracks."""
    from repro.obs.render import counter, meta

    host_shard: Dict[str, int] = {}
    for s, hosts in enumerate(partitions):
        for h in hosts:
            host_shard[h] = s
    events: List[Dict[str, Any]] = []
    named_pids = set()
    for host in sorted(host_timelines):
        s = host_shard.get(host, 0)
        pid = PID_SHARD_BASE + s
        if pid not in named_pids:
            named_pids.add(pid)
            hosts = ", ".join(partitions[s]) if s < len(partitions) else host
            events.append(meta(pid, f"shard {s} ({hosts})"))
        tl = host_timelines[host]
        window_ns = tl.get("window_ns", 0)
        for win in tl.get("windows", []):
            span = win["t_end"] - win["t_start"] or window_ns
            scale = 1e9 / span if span > 0 else 0.0
            rates: Dict[str, float] = {}
            for family, delta in win["families"]:
                rates[family] = rates.get(family, 0.0) + delta * scale
            for family in RATE_FAMILIES:
                if family in rates:
                    events.append(counter(f"{host} {family}/s", "timeline",
                                          win["t_end"], pid, rates[family]))
    return events


def _barrier_events(telemetry: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Counter tracks: per-shard window wall (µs) on the simulated clock."""
    from repro.obs.render import counter, meta

    barrier = telemetry.get("barrier", {})
    heat = barrier.get("heat", [])
    if not heat:
        return []
    events: List[Dict[str, Any]] = [meta(PID_BARRIER, "rack: barrier profile")]
    n_shards = len(heat[0]["wall_us"])
    for bucket in heat:
        for s in range(n_shards):
            events.append(counter(f"shard {s} window wall us", "rack",
                                  bucket["t_end_ns"], PID_BARRIER, bucket["wall_us"][s]))
    return events


def rack_perfetto_trace(report: Dict[str, Any],
                        host_bundles: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The merged Chrome ``trace_event`` document for one rack run.

    ``host_bundles`` are the per-host telemetry bundles the run's shards
    shipped (``ShardedSimulator.host_telemetry``); ``report`` is the
    run's report.  Track groups: stitched end-to-end request paths,
    cross-shard fabric transits (one track per directed host hop), the
    barrier profile, and one telemetry group per shard with its hosts'
    rate-family counters.  Write it with
    :func:`repro.obs.render.write_trace`.
    """
    from repro.obs.render import trace_doc

    telemetry = report.get("telemetry")
    if not telemetry:
        raise ValueError("report has no telemetry block: run with telemetry on")
    host_marks = {h: b["span_marks"] for h, b in host_bundles.items()
                  if "span_marks" in b}
    host_order = tuple(sorted(host_marks))
    spec = report.get("spec", {})
    if spec:
        servers = tuple(f"h{i}" for i in range(spec.get("n_hosts", 0)))
        clients = tuple(f"c{i}" for i in range(spec.get("n_client_hosts", 0)))
        host_order = servers + clients
    traces = stitch_marks(host_marks, host_order)
    partitions = [s["hosts"] for s in telemetry.get("barrier", {}).get("per_shard", [])]
    events = _stitched_events(traces)
    events.extend(_fabric_events(traces))
    events.extend(_barrier_events(telemetry))
    events.extend(_shard_group_events(
        {h: b["timeline"] for h, b in host_bundles.items() if "timeline" in b},
        partitions))
    return trace_doc(events, __name__)


# -------------------------------------------------------------- text render
def format_rack_telemetry(telemetry: Dict[str, Any]) -> str:
    """Paper-style text rendering of one rack telemetry block."""
    lines: List[str] = []
    paths = telemetry.get("paths")
    if paths:
        lines.append(format_path_report(paths, title="Stitched event paths"))
        cross = paths.get("cross_host", {})
        lines.append(
            f"  cross-host: {cross.get('complete_multi_host', 0)} complete "
            f"multi-host paths, {cross.get('xshard_hops_mean', 0.0):.1f} "
            f"fabric hops/request, telescoping exact for "
            f"{cross.get('telescoping_exact', 0)}"
        )
    wd = telemetry.get("watchdog", {})
    lines.append(
        f"  watchdog: {wd.get('windows_checked', 0)} windows checked, "
        f"{wd.get('violations', 0)} violations"
    )
    steady = telemetry.get("timeline", {}).get("steady", {})
    if steady:
        fams = [f for f in RATE_FAMILIES
                if any(f in rates for rates in steady.values())]
        header = "  " + f"{'host':<6}" + "".join(f"{f:>16}" for f in fams)
        lines.append("")
        lines.append("  Per-host steady rates (/s)")
        lines.append(header)
        for host, rates in steady.items():
            lines.append("  " + f"{host:<6}"
                         + "".join(f"{rates.get(f, 0.0):>16,.0f}" for f in fams))
    barrier = telemetry.get("barrier", {})
    per_shard = barrier.get("per_shard", [])
    if per_shard:
        lines.append("")
        lines.append(
            f"  Barrier profile: {barrier.get('windows', 0)} windows, "
            f"lookahead {barrier.get('lookahead_ns', 0) / 1e3:.0f} us, "
            f"straggler shard {barrier.get('straggler_shard')}"
        )
        lines.append(
            f"  {'shard':<6}{'hosts':<22}{'bound':>7}{'util':>7}"
            f"{'wall us (mean/max)':>20}{'wait s':>9}"
        )
        for s in per_shard:
            lines.append(
                f"  {s['shard']:<6}{', '.join(s['hosts']):<22}"
                f"{s['bound_fraction']:>6.0%}{s['lookahead_utilization']:>7.0%}"
                f"{s['window_wall_mean_us']:>10.1f}/{s['window_wall_max_us']:<9.1f}"
                f"{s['barrier_wait_s']:>9.3f}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------- dashboard
def render_rack_dashboard(report: Dict[str, Any]) -> str:
    """A self-contained rack observability page (same conventions as the
    bench dashboard: zero external resources, palette-safe, offline)."""
    from repro.obs.render import card, esc, page, table

    telemetry = report.get("telemetry", {})
    spec = report.get("spec", {})
    sections: List[str] = []

    steady = telemetry.get("timeline", {}).get("steady", {})
    if steady:
        fams = [f for f in RATE_FAMILIES
                if any(f in rates for rates in steady.values())]
        rows = [(host, *(f"{rates.get(f, 0.0):,.0f}" for f in fams))
                for host, rates in steady.items()]
        sections.append(card(
            "Per-host steady rates",
            table(("host", *(f"{f}/s" for f in fams)), rows,
                  num=range(1, len(fams) + 1))))

    barrier = telemetry.get("barrier", {})
    heat = barrier.get("heat", [])
    if heat:
        n_shards = len(heat[0]["wall_us"])
        peak = max((max(b["wall_us"]) for b in heat), default=0.0) or 1.0
        grid = []
        for s in range(n_shards):
            cells = []
            for bucket in heat:
                v = bucket["wall_us"][s]
                alpha = max(0.05, min(1.0, v / peak))
                cells.append(
                    f'<td title="windows {bucket["window_start"]}-'
                    f'{bucket["window_end"]}: {v:.1f} us" '
                    f'style="background:rgba(214,64,52,{alpha:.2f});'
                    'width:9px;height:18px;padding:0"></td>'
                )
            grid.append(f'<tr><td class="num">shard {s}</td>'
                        + "".join(cells) + "</tr>")
        sections.append(card(
            "Barrier-wait heat (per-shard window wall time)",
            '<table style="border-collapse:collapse">' + "".join(grid) + "</table>",
            unit="each cell is one bucket of sync windows; darker = this shard "
                 "computed longer (others waited); "
                 f"straggler: shard {barrier.get('straggler_shard')}"))
    per_shard = barrier.get("per_shard", [])
    if per_shard:
        rows = [
            (str(s["shard"]), ", ".join(s["hosts"]), f'{s["bound_fraction"]:.0%}',
             f'{s["lookahead_utilization"]:.0%}', f'{s["window_wall_mean_us"]:.1f}',
             f'{s["window_wall_max_us"]:.1f}', f'{s["barrier_wait_s"]:.3f}')
            for s in per_shard
        ]
        sections.append(card(
            "Straggler attribution",
            table(("shard", "hosts", "bounds", "util", "wall mean µs",
                   "wall max µs", "barrier wait s"), rows, num=(0, 2, 3, 4, 5, 6))))

    paths = telemetry.get("paths", {})
    stages = paths.get("stages", {})
    if stages:
        rows = [
            (name, f'{s["count"]:,}', f'{s["p50_us"]:.1f}', f'{s["p99_us"]:.1f}',
             f'{s["mean_us"]:.1f}', f'{s["share"]:.1%}')
            for name, s in stages.items()
        ]
        rtt = paths.get("rtt", {})
        counts = paths.get("counts", {})
        cross = paths.get("cross_host", {})
        sections.append(card(
            "Stitched-path stage attribution",
            table(("stage", "count", "p50 µs", "p99 µs", "mean µs", "share"),
                  rows, num=range(1, 6)),
            unit=f'{counts.get("complete", 0):,} complete '
                 f'of {counts.get("total", 0):,} stitched paths '
                 f'({cross.get("complete_multi_host", 0):,} multi-host); '
                 f'end-to-end p50 {rtt.get("p50_us", 0.0):.1f} µs, '
                 f'p99 {rtt.get("p99_us", 0.0):.1f} µs'))

    wd = telemetry.get("watchdog", {})
    title = (
        f"Rack observability — {spec.get('n_hosts', '?')} ES2 hosts + "
        f"{spec.get('n_client_hosts', '?')} clients, "
        f"{report.get('n_shards', '?')} shards, "
        f"{spec.get('config', '?')}"
    )
    body = (
        f"<h1>{esc(title)}</h1>"
        f'<div class="chart-unit">watchdog: {wd.get("windows_checked", 0):,} '
        f'windows checked, {wd.get("violations", 0):,} violations</div>'
        + "".join(sections)
    )
    return page(title, body)
