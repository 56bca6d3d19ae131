"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and JSON Lines.

:func:`perfetto_trace` converts reconstructed path traces (plus, when the
bus retains them, the vCPU scheduling and vhost mode-switch records) into
the Chrome trace-event format (the JSON-array flavour), loadable directly
in ``ui.perfetto.dev`` or ``chrome://tracing``:

* process "event path" — one track (tid) per traced request; a root
  ``request/<kind>`` span with the stage spans nested inside it, stage
  attributes in ``args``;
* process "vCPU scheduling" — one track per (VM, vCPU) with its online
  intervals (``sched-in`` → ``sched-out``) and instant markers for
  redirected interrupt deliveries;
* process "vhost" — instant markers for Algorithm 1's polling →
  notification mode switches, one track per handler.

Timestamps are microseconds (the trace-event unit) as floats, preserving
the simulator's nanosecond resolution.  The document format and its
on-disk writer live in the render kit (:mod:`repro.obs.render`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from repro.obs.render import complete, instant, meta, trace_doc
from repro.obs.spans import PathTrace

__all__ = ["perfetto_trace", "export_spans_jsonl"]

#: Synthetic pid per exported "process" (track group).
PID_PATH = 1
PID_SCHED = 2
PID_VHOST = 3


def _path_events(traces: Iterable[PathTrace]) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = [meta(PID_PATH, "event path")]
    for trace in sorted(traces, key=lambda t: t.ctx):
        if not trace.marks:
            continue
        tid = trace.ctx
        label = f"req {trace.ctx} ({trace.kind or 'truncated'})"
        events.append(meta(PID_PATH, label, tid=tid))
        tree = trace.to_span_tree()
        if len(trace.marks) >= 2:
            events.append(complete(
                tree["name"], "span", tree["start"], tree["end"] - tree["start"],
                PID_PATH, tid, {"ctx": trace.ctx, "complete": trace.complete,
                                "truncated": trace.truncated}))
        for child in tree["children"]:
            events.append(complete(
                child["name"], "span", child["start"], child["end"] - child["start"],
                PID_PATH, tid, {"point": child["point"], **child["attrs"]}))
        if trace.dropped:
            mark = trace.marks[-1]
            events.append(instant(f"dropped:{mark.attrs.get('reason', '?')}", "span",
                                  mark.t, PID_PATH, tid, dict(mark.attrs)))
    return events


def _sched_events(bus) -> List[Dict[str, Any]]:
    """Per-vCPU online spans + redirect instants from the retained ring."""
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}

    def tid_of(key: str) -> int:
        if key not in tids:
            tids[key] = len(tids) + 1
            events.append(meta(PID_SCHED, key, tid=tids[key]))
        return tids[key]

    open_since: Dict[str, int] = {}
    last_t = 0
    for e in bus.events:
        last_t = max(last_t, e.t)
        if e.kind not in ("sched-in", "sched-out", "irq-redirect"):
            continue
        if e.kind == "irq-redirect":
            key = f"{e.fields.get('vm', '?')}/vcpu{e.fields.get('target', '?')}"
            events.append(instant(f"irq-redirect v{e.fields.get('vector', '?')}",
                                  "redirect", e.t, PID_SCHED, tid_of(key), dict(e.fields)))
            continue
        key = f"{e.fields.get('vm', '?')}/vcpu{e.fields.get('vcpu', '?')}"
        if e.kind == "sched-in":
            open_since.setdefault(key, e.t)
            continue
        start = open_since.pop(key, None)
        if start is not None:
            events.append(complete("online", "sched", start, e.t - start,
                                   PID_SCHED, tid_of(key), {}))
    # vCPUs still on a core when the window closed: emit the open interval.
    for key, start in sorted(open_since.items()):
        events.append(complete("online", "sched", start, max(0, last_t - start),
                               PID_SCHED, tid_of(key), {"open": True}))
    if events:
        events.insert(0, meta(PID_SCHED, "vCPU scheduling"))
    return events


def _mode_switch_events(bus) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}
    for t, fields in bus.of_kind("mode-switch"):
        handler = str(fields.get("handler", "?"))
        if handler not in tids:
            tids[handler] = len(tids) + 1
            events.append(meta(PID_VHOST, handler, tid=tids[handler]))
        events.append(instant(f"mode-switch:{fields.get('mode', '?')}", "mode_switch",
                              t, PID_VHOST, tids[handler], dict(fields)))
    if events:
        events.insert(0, meta(PID_VHOST, "vhost"))
    return events


def perfetto_trace(traces: Iterable[PathTrace], bus=None) -> Dict[str, Any]:
    """Build the Chrome ``trace_event`` document (JSON-object flavour);
    write it with :func:`repro.obs.render.write_trace`."""
    events = _path_events(traces)
    if bus is not None:
        events.extend(_sched_events(bus))
        events.extend(_mode_switch_events(bus))
    return trace_doc(events, __name__)


def export_spans_jsonl(traces: Iterable[PathTrace], path: str) -> int:
    """One JSON line per request span tree (for scripting); returns count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for trace in sorted(traces, key=lambda t: t.ctx):
            fh.write(json.dumps(trace.to_span_tree(), sort_keys=True, allow_nan=False))
            fh.write("\n")
            n += 1
    return n
