"""The render kit: what every self-contained HTML page and Perfetto trace shares.

The repo emits three offline HTML pages — the bench dashboard
(:mod:`repro.obs.dashboard`), the flow Gantt (:mod:`repro.obs.flowdash`)
and the rack dashboard (:func:`repro.obs.rack.render_rack_dashboard`) —
and two Chrome/Perfetto ``trace_event`` documents
(:func:`repro.obs.export.perfetto_trace`,
:func:`repro.obs.rack.rack_perfetto_trace`).  Each keeps only its own
content; the shell, stylesheet, tiles, cards, tables and the trace
document format live here, so the artifacts read as one system.

Pages have **zero external resources**: styles inline, charts as inline
SVG, data as inline JSON, so a page can be archived next to its inputs
and opened anywhere, offline.  Every text value is HTML-escaped.

This module imports :mod:`html`; keep it off the import path of
:mod:`repro.sim` and :mod:`repro.cluster` (import it lazily there).
"""

from __future__ import annotations

import html
import json
from typing import Any, Container, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "MAX_SERIES", "card", "esc", "fmt", "page", "table", "tiles",
    "complete", "counter", "instant", "meta", "trace_doc", "us", "write_trace",
]

# Categorical palettes (8 slots, fixed order, never cycled) validated with
# the six-check palette validator against each mode's surface; dark mode is
# its own selection, not an automatic flip of the light one.
_LIGHT_SERIES = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948")
_DARK_SERIES = ("#3987e5", "#d95926", "#199e70", "#c98500",
                "#d55181", "#008300", "#9085e9", "#e66767")
#: Palette slots ``--s0``…``--s7``; a chart never shows more series.
MAX_SERIES = len(_LIGHT_SERIES)
_LIGHT_VARS = "".join(f"--s{i}: {c};" for i, c in enumerate(_LIGHT_SERIES))
_DARK_VARS = "".join(f"--s{i}: {c};" for i, c in enumerate(_DARK_SERIES))

_CSS = f"""
:root {{
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --card: #ffffff; --edge: #e1e0d9;
  {_LIGHT_VARS}
}}
@media (prefers-color-scheme: dark) {{
  :root {{
    --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --axis: #383835; --card: #222221; --edge: #2c2c2a;
    {_DARK_VARS}
  }}
}}
* {{ box-sizing: border-box; }}
body {{
  margin: 0; padding: 24px; background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}}
h1 {{ font-size: 20px; margin: 0 0 4px; }}
h2 {{ font-size: 16px; margin: 28px 0 10px; }}
.sub {{ color: var(--ink-2); margin: 0 0 18px; }}
.tiles {{ display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }}
.tile {{
  background: var(--card); border: 1px solid var(--edge); border-radius: 8px;
  padding: 12px 16px; min-width: 150px;
}}
.tile .v {{ font-size: 22px; font-weight: 600; font-variant-numeric: tabular-nums; }}
.tile .l {{ color: var(--ink-2); font-size: 12px; }}
.card {{
  background: var(--card); border: 1px solid var(--edge); border-radius: 8px;
  padding: 14px 16px; margin: 0 0 16px;
}}
.chart-title {{ font-weight: 600; margin-bottom: 2px; }}
.chart-unit {{ color: var(--ink-2); font-size: 12px; margin-bottom: 6px; }}
svg.chart {{ display: block; }}
.gridline {{ stroke: var(--grid); stroke-width: 1; }}
.axisline {{ stroke: var(--axis); stroke-width: 1; }}
.ticktext {{ fill: var(--ink-2); font-size: 11px; }}
.series {{ fill: none; stroke-width: 2; }}
.legend {{ display: flex; flex-wrap: wrap; gap: 4px 16px; margin-top: 6px; font-size: 12px; color: var(--ink-2); }}
.legend .sw {{
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 5px; vertical-align: -1px;
}}
table {{ border-collapse: collapse; font-size: 13px; margin-top: 8px; }}
th, td {{
  text-align: left; padding: 4px 12px 4px 0; border-bottom: 1px solid var(--edge);
}}
td.num, th.num {{ text-align: right; font-variant-numeric: tabular-nums; }}
th {{ color: var(--ink-2); font-weight: 600; }}
.ok {{ font-weight: 600; }}
.note {{ color: var(--ink-3); font-size: 12px; }}
#tooltip {{
  position: fixed; display: none; pointer-events: none; z-index: 10;
  background: var(--card); border: 1px solid var(--axis); border-radius: 6px;
  padding: 6px 9px; font-size: 12px; box-shadow: 0 2px 8px rgba(0,0,0,.18);
  max-width: 340px;
}}
#tooltip .t {{ color: var(--ink-2); margin-bottom: 2px; }}
#tooltip .row {{ white-space: nowrap; }}
.crosshair {{ stroke: var(--axis); stroke-width: 1; stroke-dasharray: 3 3; }}
details summary {{ cursor: pointer; color: var(--ink-2); font-size: 12px; margin-top: 6px; }}
"""


# ------------------------------------------------------------------- text
def esc(s: Any) -> str:
    """HTML-escape anything (quotes included) for text or an attribute."""
    return html.escape(str(s), quote=True)


def fmt(v: Optional[float]) -> str:
    """Human-scale number for tables and tiles."""
    if v is None:
        return "–"
    a = abs(v)
    if a >= 1e9:
        return f"{v / 1e9:.2f}G"
    if a >= 1e6:
        return f"{v / 1e6:.2f}M"
    if a >= 1e4:
        return f"{v / 1e3:.1f}k"
    if a >= 100:
        return f"{v:,.0f}"
    if a >= 1:
        return f"{v:.2f}"
    if a == 0:
        return "0"
    return f"{v:.3g}"


# ------------------------------------------------------------------ pages
def page(title: str, body: str, style: str = "", script: str = "") -> str:
    """The complete document: shared stylesheet plus the page's own
    ``style`` additions, ``body`` markup, and an optional inline script."""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<title>{esc(title)}</title>\n"
        f"<style>{_CSS}{style}</style>\n"
        "</head><body>\n"
        + body
        + (f"\n<script>{script}</script>" if script else "")
        + "\n</body></html>\n"
    )


def tiles(items: Iterable[Tuple[str, str]]) -> str:
    """One row of headline stat tiles from ``(label, value)`` pairs."""
    return '<div class="tiles">' + "".join(
        f'<div class="tile"><div class="v">{esc(value)}</div>'
        f'<div class="l">{esc(label)}</div></div>'
        for label, value in items
    ) + "</div>"


def card(title: str, body: str, unit: str = "") -> str:
    """One card: an optional ``title`` and ``unit`` line (text) above
    ``body`` (markup)."""
    head = f'<div class="chart-title">{esc(title)}</div>' if title else ""
    if unit:
        head += f'<div class="chart-unit">{esc(unit)}</div>'
    return f'<div class="card">{head}{body}</div>'


def table(head: Sequence[str], rows: Iterable[Sequence[str]],
          num: Container[int] = ()) -> str:
    """A header-and-rows table; columns whose index is in ``num`` are
    right-aligned numbers.  Every cell is escaped."""

    def cell(tag: str, i: int, value: str) -> str:
        cls = ' class="num"' if i in num else ""
        return f"<{tag}{cls}>{esc(value)}</{tag}>"

    out = ["<table><tr>", *(cell("th", i, h) for i, h in enumerate(head)), "</tr>"]
    for row in rows:
        out.append("<tr>")
        out.extend(cell("td", i, v) for i, v in enumerate(row))
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


# --------------------------------------------------------------- perfetto
def meta(pid: int, name: str, tid: Optional[int] = None) -> Dict[str, Any]:
    """A metadata event naming track group ``pid`` (or its track ``tid``)."""
    event: Dict[str, Any] = {
        "ph": "M",
        "pid": pid,
        "name": "process_name" if tid is None else "thread_name",
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def us(t_ns: int) -> float:
    """Simulated nanoseconds to trace-event microseconds, as a float that
    keeps the nanosecond digits."""
    return t_ns / 1e3


def complete(name: str, cat: str, start_ns: int, dur_ns: int, pid: int, tid: int,
             args: Dict[str, Any]) -> Dict[str, Any]:
    """A complete (``X``) event: one interval on track ``tid``."""
    return {"name": name, "cat": cat, "ph": "X", "ts": us(start_ns),
            "dur": us(dur_ns), "pid": pid, "tid": tid, "args": args}


def instant(name: str, cat: str, t_ns: int, pid: int, tid: int,
            args: Dict[str, Any]) -> Dict[str, Any]:
    """A thread-scoped instant (``i``) event on track ``tid``."""
    return {"name": name, "cat": cat, "ph": "i", "s": "t", "ts": us(t_ns),
            "pid": pid, "tid": tid, "args": args}


def counter(name: str, cat: str, t_ns: int, pid: int, value: float) -> Dict[str, Any]:
    """A counter (``C``) sample: track ``name`` of group ``pid`` reads ``value``."""
    return {"name": name, "cat": cat, "ph": "C", "ts": us(t_ns), "pid": pid,
            "args": {"value": value}}


def trace_doc(events: List[Dict[str, Any]], generator: str) -> Dict[str, Any]:
    """The Chrome ``trace_event`` document (JSON-object flavour);
    ``generator`` is the emitting module's name."""
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"generator": f"{generator} (ES2 reproduction)"},
    }


def write_trace(doc: Dict[str, Any], path: str) -> None:
    """Write a trace document in the on-disk format: strict JSON (a NaN
    raises ``ValueError``), indent 1, sorted keys, trailing newline."""
    text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
