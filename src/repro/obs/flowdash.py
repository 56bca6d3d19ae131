"""Self-contained HTML Gantt dashboard for one flow run.

``render_flow_dashboard`` turns a schema-v2 ``flow-state.json`` document
into a single offline HTML file — built on the shared render kit
(:mod:`repro.obs.render`), so it reads as one system with the bench and
rack dashboards.

Content:

* headline tiles: busy makespan, total work, parallel efficiency,
  critical-path wall, cache hits, budget overruns;
* the **Gantt chart**: one lane per task that executed, positioned on the
  run's wall-clock axis, colored by task kind; the **critical path** is
  outlined and listed; each bar is preceded by a hatched *queue-wait*
  segment (ready → execution start), so pool saturation is visible as
  geometry, not a buried number;
* the **cache-hit map**: one chip per task in state order — filled for
  executed, hollow for cache hits, with hit counts — the at-a-glance
  answer to "what did this invocation actually pay for";
* the per-task resource table: wall, CPU user/sys, peak-RSS delta, queue
  wait, worker id, budget verdict.

Identity never relies on color alone: every bar and chip carries a
``<title>`` tooltip and the tables repeat the exact numbers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.obs.flowreport import flow_report
from repro.obs.render import Markup, card, esc, fmt, page, table, tiles

__all__ = ["render_flow_dashboard"]

#: Task kind -> fixed palette slot (never cycled, stable across runs).
_KIND_SLOTS = {
    "calibrate": 3,
    "point": 5,
    "sweep": 0,
    "render": 2,
    "bench": 1,
    "report": 4,
    "task": 6,
}

_LANE_H = 18
_LANE_GAP = 4
_LABEL_W = 170
_CHART_W = 960
_AXIS_H = 24


def _kind_slot(kind: str) -> int:
    return _KIND_SLOTS.get(kind, _KIND_SLOTS["task"])


#: Gantt-specific additions on top of the shared stylesheet.
_FLOW_CSS = """
.lane-label { fill: var(--ink-2); font-size: 11px; }
.bar { rx: 2; }
.bar.cached { opacity: 0.35; }
.bar.critical { stroke: var(--ink); stroke-width: 1.5; }
.qwait { opacity: 0.25; }
.chips { display: flex; flex-wrap: wrap; gap: 4px; }
.chip {
  width: 14px; height: 14px; border-radius: 3px; border: 2px solid transparent;
}
.chip.cached { background: transparent !important; }
.chip.failed { border-color: var(--s7); }
.chip.skipped { opacity: 0.3; }
.badge { font-size: 11px; border-radius: 3px; padding: 1px 5px; }
.badge.over { background: var(--s7); color: #fff; }
"""


def _tiles(report: Mapping[str, Any]) -> str:
    cache = report["cache"]
    return tiles([
        ("busy makespan", f"{report['makespan_s']:.1f} s"),
        ("total work", f"{report['total_work_s']:.1f} s"),
        ("parallel efficiency", f"{report['parallel_efficiency']:.2f}×"),
        ("critical path", f"{report['critical_path']['wall_s']:.1f} s"),
        ("executed / cached", f"{cache['executed']} / {cache['cached']}"),
        ("budget overruns", str(len(report["budgets"]["over"]))),
    ])


def _gantt(state: Mapping[str, Any], report: Mapping[str, Any]) -> str:
    records = state.get("tasks", {})
    rows = [
        (name, rec) for name, rec in records.items()
        if rec.get("started_unix", 0) > 0 and rec.get("finished_unix", 0) > 0
    ]
    if not rows:
        return card("", '<div class="note">no executed tasks to chart</div>')
    rows.sort(key=lambda kv: kv[1]["started_unix"])
    critical = set(report["critical_path"]["tasks"])
    base = min(rec["started_unix"] - rec.get("queue_wait_s", 0.0) for _, rec in rows)
    tmax = max((rec["started_unix"] - base) + rec.get("wall_s", 0.0) for _, rec in rows)
    tmax = max(tmax, 1e-9)
    plot_w = _CHART_W - _LABEL_W

    def sx(t: float) -> float:
        return _LABEL_W + t / tmax * plot_w

    height = _AXIS_H + len(rows) * (_LANE_H + _LANE_GAP)
    parts: List[str] = [
        f'<svg class="chart" viewBox="0 0 {_CHART_W} {height}" width="{_CHART_W}" '
        f'height="{height}" role="img" aria-label="flow run Gantt chart">'
    ]
    # time gridlines: 5 ticks
    for i in range(6):
        t = tmax * i / 5
        x = sx(t)
        parts.append(
            f'<line class="gridline" x1="{x:.1f}" y1="{_AXIS_H - 6}" '
            f'x2="{x:.1f}" y2="{height}"/>'
        )
        parts.append(
            f'<text class="ticktext" x="{x:.1f}" y="{_AXIS_H - 10}" '
            f'text-anchor="middle">{t:.1f}s</text>'
        )
    for i, (name, rec) in enumerate(rows):
        y = _AXIS_H + i * (_LANE_H + _LANE_GAP)
        start = rec["started_unix"] - base
        wall = rec.get("wall_s", 0.0)
        qwait = rec.get("queue_wait_s", 0.0)
        slot = _kind_slot(rec.get("kind", "task"))
        classes = "bar"
        if rec.get("cached"):
            classes += " cached"
        if name in critical:
            classes += " critical"
        label = name if len(name) <= 24 else name[:23] + "…"
        parts.append(
            f'<text class="lane-label" x="{_LABEL_W - 6}" y="{y + 13}" '
            f'text-anchor="end">{esc(label)}</text>'
        )
        if qwait > 0:
            qx = sx(max(0.0, start - qwait))
            parts.append(
                f'<rect class="qwait" x="{qx:.2f}" y="{y + 4}" '
                f'width="{max(0.5, sx(start) - qx):.2f}" height="{_LANE_H - 8}" '
                f'fill="var(--s{slot})">'
                f"<title>{esc(name)}: queue wait {qwait * 1e3:.1f} ms</title></rect>"
            )
        tip = (
            f"{name} [{rec.get('kind', 'task')}] — wall {wall:.2f}s, "
            f"cpu {rec.get('cpu_user_s', 0.0):.2f}u/{rec.get('cpu_sys_s', 0.0):.2f}s, "
            f"rss +{rec.get('peak_rss_kb', 0)} kB, {rec.get('worker', '?')}"
            + (", cached" if rec.get("cached") else "")
            + (", CRITICAL PATH" if name in critical else "")
        )
        parts.append(
            f'<rect class="{classes}" x="{sx(start):.2f}" y="{y + 2}" '
            f'width="{max(1.0, wall / tmax * plot_w):.2f}" height="{_LANE_H - 4}" '
            f'fill="var(--s{slot})"><title>{esc(tip)}</title></rect>'
        )
    parts.append("</svg>")
    legend = "".join(
        f'<span><span class="sw" style="background: var(--s{slot})"></span>{esc(kind)}</span>'
        for kind, slot in _KIND_SLOTS.items() if kind != "task"
    )
    legend += ('<span><span class="sw" style="background: var(--ink); opacity:.8">'
               "</span>outlined = critical path</span>"
               '<span><span class="sw" style="background: var(--s0); opacity:.25">'
               "</span>faded lead-in = queue wait</span>")
    return card("Task Gantt", "".join(parts) + f'<div class="legend">{legend}</div>',
                unit="wall-clock seconds from first task start; "
                     "bars colored by task kind, cache hits faded")


def _cache_map(state: Mapping[str, Any]) -> str:
    records = state.get("tasks", {})
    if not records:
        return ""
    chips = []
    for name, rec in records.items():
        slot = _kind_slot(rec.get("kind", "task"))
        classes = "chip"
        status = rec.get("status", "pending")
        if rec.get("cached"):
            classes += " cached"
        if status in ("failed", "skipped"):
            classes += f" {status}"
        hits = rec.get("hit_count", 0)
        tip = (f"{name}: {status}"
               + (", cached" if rec.get("cached") else ", executed")
               + (f", {hits} hit(s)" if hits else ""))
        chips.append(
            f'<div class="{classes}" title="{esc(tip)}" '
            f'style="background: var(--s{slot}); border-color: var(--s{slot})"></div>'
        )
    return card("Cache-hit map", f'<div class="chips">{"".join(chips)}</div>',
                unit="one chip per task, state order — filled = executed "
                     "this invocation, hollow = served from cache, red outline = failed")


def _critical_path_card(report: Mapping[str, Any]) -> str:
    cp = report["critical_path"]
    if not cp["tasks"]:
        return ""
    rows = []
    cumulative = 0.0
    for name in cp["tasks"]:
        wall = cp["walls"][name]
        cumulative += wall
        rows.append((name, f"{wall:.2f}", f"{cumulative:.2f}"))
    return card(
        "Critical path",
        table(("task", "wall s", "cumulative s"), rows, num=(1, 2)),
        unit=f'{cp["wall_s"]:.2f}s — {cp["share_of_makespan"] * 100:.0f}% of the '
             "busy makespan; no schedule can finish the run faster than this chain")


def _resource_table(state: Mapping[str, Any]) -> str:
    records = state.get("tasks", {})
    if not records:
        return ""
    rows = []
    ordered = sorted(
        records.items(), key=lambda kv: -float(kv[1].get("wall_s", 0.0))
    )
    for name, rec in ordered:
        budget = float(rec.get("budget_s", 0.0))
        verdict = ""
        if rec.get("over_budget"):
            verdict = Markup(f'<span class="badge over">'
                             f'+{rec.get("wall_s", 0.0) - budget:.1f}s</span>')
        elif budget:
            verdict = "ok"
        rows.append((
            name, rec.get("status", "?"),
            "cache" if rec.get("cached") else rec.get("source") or "–",
            f'{rec.get("wall_s", 0.0):.2f}', f'{rec.get("cpu_user_s", 0.0):.2f}',
            f'{rec.get("cpu_sys_s", 0.0):.2f}', fmt(rec.get("peak_rss_kb", 0)),
            f'{rec.get("queue_wait_s", 0.0) * 1e3:.1f}', rec.get("worker") or "–",
            verdict,
        ))
    return card(
        "Per-task resources",
        table(("task", "status", "source", "wall s", "cpu u", "cpu s", "rss kB",
               "q-wait ms", "worker", "budget"), rows, num=range(3, 8)),
        unit="sorted by wall; CPU seconds are worker getrusage deltas, "
             "RSS is the task's contribution to the worker's peak")


def render_flow_dashboard(
    state: Mapping[str, Any], report: Optional[Dict[str, Any]] = None
) -> str:
    """The complete Gantt dashboard for one flow-state document."""
    if report is None:
        report = flow_report(state)
    last = report.get("last_run", {})
    sub = (
        f"run {report['run_key']} · mode {report['mode']} · "
        f"schema v{report['schema']} · code {report['code_version']} · "
        f"jobs {last.get('jobs', '?')}"
    )
    body = (
        "<h1>ES2 reproduction — flow run dashboard</h1>"
        f'<p class="sub">{esc(sub)}</p>'
        + _tiles(report)
        + "<h2>Schedule</h2>"
        + _gantt(state, report)
        + _critical_path_card(report)
        + "<h2>Cache and resources</h2>"
        + _cache_map(state)
        + _resource_table(state)
    )
    return page(f"ES2 flow dashboard — {report['run_key']}", body, style=_FLOW_CSS)
