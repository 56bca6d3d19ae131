"""Self-contained HTML dashboard for one bench run.

``render_dashboard`` turns the bench points' merged results (see
:mod:`repro.obs.bench`; the flow's ``dashboard`` task calls it with the
``bench-points`` task's result) into a single HTML file with **zero external
resources** — styles inline, charts as inline SVG, interactivity as a
small inline script — so the artifact can be archived next to the JSON,
attached to CI runs, and opened anywhere, offline, forever.

Content:

* headline stat tiles (throughput, I/O-exit reduction, ping p50/p99,
  watchdog verdict);
* per-configuration windowed exit-rate charts from the points' timeline
  windows, with a cross-check table proving the windowed series
  reaggregates to the bench's steady-state figure;
* network-rate, gauge, and hybrid mode-residency charts;
* the scheduler-zoo panel;
* the per-stage event-path attribution table
  (:mod:`repro.obs.pathreport` output carried by the report).

The tiles and tables read the report that
:func:`~repro.obs.bench.bench_report` assembles from the points; the
charts read the per-window series, which only the points carry.

The page shell, stylesheet, tiles, cards and tables come from the render
kit (:mod:`repro.obs.render`); this module keeps the charts and the
section content.  Charts follow the repo's chart conventions: the kit's
categorical palette validated for color-vision deficiency (in both light
and dark mode), 2 px lines, one y-axis per chart, legends plus
per-group summary tables (so identity and exact values never rely on
color alone), and a crosshair tooltip driven by inline data.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.render import MAX_SERIES, card, esc, fmt, page, table, tiles

__all__ = ["render_dashboard", "steady_state_window_rate"]

_CHART_W = 660
_CHART_H = 200
_PAD_L = 62
_PAD_R = 14
_PAD_T = 12
_PAD_B = 26

# Crosshair + tooltip for every .chartbox: nearest-time lookup against
# the JSON embedded beside each chart.  Plain DOM, no dependencies.
_TOOLTIP_JS = """
(function () {
  var tip = document.getElementById('tooltip');
  document.querySelectorAll('.chartbox').forEach(function (box) {
    var svg = box.querySelector('svg.chart');
    var dataEl = box.querySelector('script[type="application/json"]');
    if (!svg || !dataEl) return;
    var data = JSON.parse(dataEl.textContent);
    var cross = svg.querySelector('.crosshair');
    function hide() { tip.style.display = 'none'; if (cross) cross.setAttribute('opacity', 0); }
    svg.addEventListener('mouseleave', hide);
    svg.addEventListener('mousemove', function (ev) {
      var rect = svg.getBoundingClientRect();
      var fx = (ev.clientX - rect.left) * (data.w / rect.width);
      if (fx < data.x0 || fx > data.x1 || !data.t.length) { hide(); return; }
      var frac = (fx - data.x0) / (data.x1 - data.x0);
      var tv = data.tmin + frac * (data.tmax - data.tmin);
      var best = 0, bestd = Infinity;
      data.t.forEach(function (t, i) {
        var d = Math.abs(t - tv);
        if (d < bestd) { bestd = d; best = i; }
      });
      var px = data.x0 + (data.t[best] - data.tmin) / ((data.tmax - data.tmin) || 1) * (data.x1 - data.x0);
      if (cross) {
        cross.setAttribute('x1', px); cross.setAttribute('x2', px);
        cross.setAttribute('opacity', 1);
      }
      var rows = '<div class="t">t = ' + data.t[best].toFixed(2) + ' ms</div>';
      data.series.forEach(function (s) {
        var v = s.v[best];
        if (v === null || v === undefined) return;
        rows += '<div class="row"><span class="sw" style="background:var(--s' + s.c +
                ')"></span>' + s.n + ': <b>' + Number(v.toPrecision(4)) + '</b></div>';
      });
      tip.innerHTML = rows;
      tip.style.display = 'block';
      var x = ev.clientX + 14, y = ev.clientY + 14;
      if (x + tip.offsetWidth > window.innerWidth - 8) x = ev.clientX - tip.offsetWidth - 10;
      if (y + tip.offsetHeight > window.innerHeight - 8) y = ev.clientY - tip.offsetHeight - 10;
      tip.style.left = x + 'px'; tip.style.top = y + 'px';
    });
  });
})();
"""


Series = Tuple[str, List[Tuple[float, Optional[float]]]]


def _series_from_windows(windows: Sequence[Dict[str, Any]], metric_ids: Sequence[str],
                         kind: str = "rates") -> List[Series]:
    """Per-metric ``(t_end_ms, value)`` series from embedded slim windows."""
    out: List[Series] = []
    for mid in metric_ids:
        pts: List[Tuple[float, Optional[float]]] = []
        for w in windows:
            value = w.get(kind, {}).get(mid)
            if kind == "rates" and value is None:
                value = 0.0  # slim windows elide zero rates
            pts.append((w["t_end"] / 1e6, value))
        out.append((mid, pts))
    return out


def _collect_ids(windows: Sequence[Dict[str, Any]], kind: str) -> List[str]:
    ids: set = set()
    for w in windows:
        ids.update(w.get(kind, {}))
    return sorted(ids)


def _top_series(series: List[Series], limit: int = MAX_SERIES) -> Tuple[List[Series], int]:
    """Keep the ``limit`` largest series by total magnitude (palette size)."""
    if len(series) <= limit:
        return series, 0
    ranked = sorted(series, key=lambda s: -sum(abs(v) for _, v in s[1] if v))
    kept = [s for s in series if s in ranked[:limit]]  # preserve stable order
    return kept, len(series) - limit


# ------------------------------------------------------------------ the chart
def _line_chart(chart_id: str, title: str, unit: str, series: List[Series],
                dropped: int = 0, note: str = "") -> str:
    """One inline-SVG line chart card: title, plot, legend, summary table."""
    series = [s for s in series if s[1]]
    if not series or all(all(v is None for _, v in pts) for _, pts in series):
        return ""
    ts = sorted({t for _, pts in series for t, _ in pts})
    tmin, tmax = ts[0], ts[-1]
    values = [v for _, pts in series for _, v in pts if v is not None]
    vmax = max(values + [0.0])
    vmin = min(values + [0.0])
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin
    vmax += span * 0.05
    x0, x1 = _PAD_L, _CHART_W - _PAD_R
    y0, y1 = _CHART_H - _PAD_B, _PAD_T

    def sx(t: float) -> float:
        if tmax == tmin:
            return (x0 + x1) / 2
        return x0 + (t - tmin) / (tmax - tmin) * (x1 - x0)

    def sy(v: float) -> float:
        return y0 + (v - vmin) / (vmax - vmin) * (y1 - y0)

    parts: List[str] = [
        f'<svg class="chart" viewBox="0 0 {_CHART_W} {_CHART_H}" '
        f'width="{_CHART_W}" height="{_CHART_H}" role="img" '
        f'aria-label="{esc(title)}">'
    ]
    # horizontal gridlines + y tick labels (4 steps)
    for i in range(5):
        v = vmin + (vmax - vmin) * i / 4
        y = sy(v)
        cls = "axisline" if i == 0 else "gridline"
        parts.append(f'<line class="{cls}" x1="{x0}" y1="{y:.1f}" x2="{x1}" y2="{y:.1f}"/>')
        parts.append(f'<text class="ticktext" x="{x0 - 6}" y="{y + 3.5:.1f}" '
                     f'text-anchor="end">{esc(fmt(v))}</text>')
    # x tick labels: start / middle / end (ms)
    for t in (tmin, (tmin + tmax) / 2, tmax):
        parts.append(f'<text class="ticktext" x="{sx(t):.1f}" y="{y0 + 16}" '
                     f'text-anchor="middle">{t:.1f}</text>')
    parts.append(f'<text class="ticktext" x="{x1}" y="{y0 + 16}" text-anchor="start"> ms</text>')
    for i, (label, pts) in enumerate(series):
        coords = " ".join(
            f"{sx(t):.1f},{sy(v):.1f}" for t, v in pts if v is not None
        )
        if coords:
            parts.append(f'<polyline class="series" stroke="var(--s{i % MAX_SERIES})" '
                         f'points="{coords}"><title>{esc(label)}</title></polyline>')
    parts.append(f'<line class="crosshair" x1="{x0}" y1="{y1}" x2="{x0}" y2="{y0}" opacity="0"/>')
    parts.append("</svg>")

    # tooltip payload: shared time base + per-series values aligned to it
    payload = {
        "w": _CHART_W, "x0": x0, "x1": x1, "tmin": tmin, "tmax": tmax,
        "t": [round(t, 4) for t in ts],
        "series": [
            {
                "n": label, "c": i % MAX_SERIES,
                "v": [dict(pts).get(t) for t in ts],
            }
            for i, (label, pts) in enumerate(series)
        ],
    }

    legend = "".join(
        f'<span><span class="sw" style="background: var(--s{i % MAX_SERIES})"></span>'
        f"{esc(label)}</span>"
        for i, (label, pts) in enumerate(series)
    )
    rows = []
    for label, pts in series:
        vals = [v for _, v in pts if v is not None]
        if vals:
            rows.append((label, fmt(min(vals)), fmt(sum(vals) / len(vals)), fmt(max(vals))))
    summary = table(("series", "min", "mean", "max"), rows, num=(1, 2, 3))
    extra = ""
    if dropped:
        extra += f'<div class="note">{dropped} additional series omitted (largest kept)</div>'
    if note:
        extra += f'<div class="note">{esc(note)}</div>'
    return (
        f'<div class="card chartbox" id="{esc(chart_id)}">'
        f'<div class="chart-title">{esc(title)}</div>'
        f'<div class="chart-unit">{esc(unit)}</div>'
        + "".join(parts)
        + f'<div class="legend">{legend}</div>'
        + f"<details><summary>table view</summary>{summary}</details>" + extra
        + '<script type="application/json">'
        + json.dumps(payload, allow_nan=False)
        + "</script></div>"
    )


# ----------------------------------------------------------------- sections
def _tiles(report: Dict[str, Any]) -> str:
    items = []
    for name, point in report.get("throughput", {}).items():
        items.append((f"{name} throughput", f"{point['throughput_gbps']:.3f} Gbps"))
    hybrid = report.get("hybrid", {})
    factor = hybrid.get("io_exit_reduction_factor")
    if "quota8" in hybrid:
        items.append(("I/O exits at quota 8",
                      "eliminated" if factor is None else f"{factor:.0f}× fewer"))
    for name, point in report.get("latency_ms", {}).items():
        items.append((f"{name} ping p99", f"{point['p99_ms']:.3f} ms"))
    violations = report.get("watchdog_violations", 0)
    items.append(("watchdog", "✓ 0 violations" if violations == 0
                  else f"✗ {violations} violations"))
    return tiles(items)


def steady_state_window_rate(point: Dict[str, Any]) -> Optional[float]:
    """Reaggregate the tested VM's total exit rate from a point's windows.

    Window rates weighted by window length reproduce the true average
    over the steady-state span; used by the cross-check table (and the
    test suite) to confirm the windowed series agrees with the bench
    aggregate within 1%.
    """
    tl = point.get("timeline")
    if not tl or not tl.get("windows"):
        return None
    total_ns = 0
    weighted = 0.0
    for w in tl["windows"]:
        span = w["t_end"] - w["t_start"]
        rate = sum(v for k, v in w.get("rates", {}).items()
                   if ".exits." in k and k.startswith("kvm.vm."))
        weighted += rate * span
        total_ns += span
    return weighted / total_ns if total_ns else None


def _block(points: Mapping[Any, Dict[str, Any]], block: str) -> List[Tuple[str, Dict[str, Any]]]:
    """``(config, result)`` of every bench point in one block, in point order."""
    return [(name, result) for (kind, name), result in points.items() if kind == block]


def _crosscheck_table(points: Mapping[Any, Dict[str, Any]]) -> str:
    rows = []
    for name, point in _block(points, "throughput"):
        agg = point.get("exits_per_sec", {}).get("total")
        windowed = steady_state_window_rate(point)
        if agg is None or windowed is None:
            continue
        diff = abs(windowed - agg) / agg * 100 if agg else 0.0
        rows.append((name, fmt(agg), fmt(windowed), f"{diff:.3f}%"))
    if not rows:
        return ""
    return card(
        "Steady-state cross-check",
        table(("config", "aggregate", "windowed", "diff"), rows, num=(1, 2, 3)),
        unit="bench aggregate vs reaggregated timeline windows (tested VM, exits/s)")


def _timeline_sections(points: Mapping[Any, Dict[str, Any]]) -> str:
    out: List[str] = []
    for name, point in _block(points, "throughput"):
        windows = point.get("timeline", {}).get("windows", [])
        if not windows:
            continue
        rate_ids = _collect_ids(windows, "rates")
        exit_ids = [k for k in rate_ids if k.startswith("kvm.exits.")]
        series, dropped = _top_series(_series_from_windows(windows, exit_ids))
        out.append(_line_chart(f"exits-{name}", f"{name}: VM exits by reason",
                               "exits/s over steady-state windows", series, dropped))
        net_ids = [k for k in rate_ids
                   if k.endswith(".packets") or k.endswith(".tx_wire_packets")
                   or k.endswith(".tap_enqueued")]
        series, dropped = _top_series(_series_from_windows(windows, net_ids))
        out.append(_line_chart(f"net-{name}", f"{name}: network rates",
                               "packets/s over steady-state windows", series, dropped))
        gauge_ids = _collect_ids(windows, "gauges")
        queue_ids = [k for k in gauge_ids
                     if k.startswith(("host.runqueue.", "sim.", "virtio."))]
        series, dropped = _top_series(
            _series_from_windows(windows, queue_ids, kind="gauges"))
        out.append(_line_chart(f"gauges-{name}", f"{name}: occupancy gauges",
                               "depth / occupancy at window boundaries", series, dropped))
    for name, point in _block(points, "latency"):
        windows = point.get("timeline", {}).get("windows", [])
        if not windows:
            continue
        gauge_ids = _collect_ids(windows, "gauges")
        res_ids = [k for k in gauge_ids if ".residency." in k]
        if res_ids:
            series, dropped = _top_series(
                _series_from_windows(windows, res_ids, kind="gauges"))
            out.append(_line_chart(
                f"residency-{name}", f"{name}: hybrid mode residency",
                "fraction of each window per Algorithm-1 mode", series, dropped,
                note="notification + polling fractions sum to 1 per handler "
                     "(watchdog-checked)"))
        irq_ids = [k for k in _collect_ids(windows, "rates")
                   if k.endswith(".interrupts_handled") or k.startswith("kvm.router.")]
        series, dropped = _top_series(_series_from_windows(windows, irq_ids))
        out.append(_line_chart(f"irq-{name}", f"{name}: interrupt delivery",
                               "events/s", series, dropped))
    return "".join(s for s in out if s)


def _path_table(report: Dict[str, Any]) -> str:
    out = []
    for name, point in report.get("latency_ms", {}).items():
        path = point.get("path")
        if not path or not path.get("stages"):
            continue
        stages = sorted(path["stages"].items(), key=lambda kv: -kv[1]["share"])
        rows = [(stage, f'{v["share"] * 100:.1f}%', f'{v["mean_us"]:.2f}',
                 f'{v["p99_us"]:.2f}') for stage, v in stages]
        counts = path.get("counts", {})
        out.append(card(
            f"{name}: event-path stage attribution",
            table(("stage", "share", "mean µs", "p99 µs"), rows, num=(1, 2, 3)),
            unit=f'{counts.get("complete", 0)} complete paths; '
                 "share of end-to-end RTT per stage"))
    return "".join(out)


def _sched_section(report: Dict[str, Any]) -> str:
    """Scheduler policy zoo panel (schema v4 ``sched`` block; additive)."""
    sched = report.get("sched")
    if not sched:
        return ""
    out: List[str] = []
    rows = [
        (policy, f'{point["samples"]:,}', f'{point["mean_ms"]:.3f}',
         f'{point["p50_ms"]:.3f}', f'{point["p99_ms"]:.3f}', f'{point["max_ms"]:.3f}')
        for policy, point in sorted(sched.get("policies", {}).items())
    ]
    if rows:
        out.append(card(
            "Scheduler policy zoo",
            table(("policy", "samples", "mean ms", "p50 ms", "p99 ms", "max ms"),
                  rows, num=range(1, 6)),
            unit="ping RTT with full ES2 (PI+H+R) per host scheduler policy"))
    adaptive = sched.get("adaptive")
    if adaptive:
        stats = adaptive.get("adaptive", {})
        rows = [
            ("ping p99", f'{adaptive["p99_ms"]:.3f} ms'),
            ("evaluations", f'{stats.get("evaluations", 0):,}'),
            ("rebalances", f'{stats.get("rebalances", 0):,}'),
            ("migrations", f'{stats.get("migrations", 0):,}'),
            ("backend cores", str(stats.get("backend_cores", []))),
            ("vCPU cores", str(stats.get("vcpu_cores", []))),
        ]
        out.append(card(
            "Adaptive backend-CPU allocation",
            table(("metric", "value"), rows, num=(1,)),
            unit="CFS + adaptive controller re-apportioning cores between "
                 "vhost workers and vCPUs"))
    if not out:
        return ""
    return "<h2>Scheduler policies</h2>" + "".join(out)


# --------------------------------------------------------------------- entry
def render_dashboard(points: Mapping[Any, Dict[str, Any]]) -> str:
    """The complete dashboard document for the bench points' merged
    ``{key: result}`` mapping (:func:`repro.obs.bench.bench_points`)."""
    from repro.obs.bench import bench_report

    report = bench_report(points)
    params = report["params"]
    window_ns = next(iter(report["throughput"].values()))["timeline"]["window_ns"]
    sub = (f"schema v{report['schema']['version']} · seed {params['seed']} · "
           f"measure {params['measure_ns'] / 1e6:.0f} ms · window {window_ns / 1e3:.0f} µs")
    body = (
        f"<h1>ES2 reproduction — bench dashboard</h1>"
        f'<p class="sub">{esc(sub)}</p>'
        + _tiles(report)
        + "<h2>Windowed telemetry</h2>"
        + _crosscheck_table(points)
        + _timeline_sections(points)
        + _sched_section(report)
        + "<h2>Event-path attribution</h2>"
        + _path_table(report)
        + '<div id="tooltip"></div>'
    )
    return page("ES2 bench dashboard", body, script=_TOOLTIP_JS)
