"""Structural checks shared by every rendered HTML page and Perfetto trace.

Each page ships as one file with zero external resources, so the checks
are structural: nothing fetched from anywhere, balanced markup, and every
embedded ``application/json`` payload parses.  Each trace must be strict
JSON whose events carry a known phase, an integer pid and a name.
"""

from __future__ import annotations

import json
from html.parser import HTMLParser
from typing import Any, Dict, Iterable, List


class PageScan(HTMLParser):
    """Collects tag balance, element ids, and embedded JSON payloads."""

    VOID = {"meta", "br", "hr", "img", "input", "link"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.mismatches = []
        self.ids = set()
        self.json_blobs = []
        self._json_depth = None

    def handle_starttag(self, tag, attrs):
        a = dict(attrs)
        if "id" in a:
            self.ids.add(a["id"])
        if tag in self.VOID:
            return
        if tag == "script" and a.get("type") == "application/json":
            self._json_depth = len(self.stack)
            self.json_blobs.append("")
        self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        a = dict(attrs)
        if "id" in a:
            self.ids.add(a["id"])

    def handle_endtag(self, tag):
        if tag in self.VOID:
            return
        if not self.stack or self.stack[-1] != tag:
            self.mismatches.append((tag, list(self.stack[-3:])))
        else:
            self.stack.pop()
        if self._json_depth is not None and len(self.stack) == self._json_depth:
            self._json_depth = None

    def handle_data(self, data):
        if self._json_depth is not None:
            self.json_blobs[-1] += data


def check_page(doc: str) -> PageScan:
    """Assert the offline page contract; returns the scan, with every
    embedded JSON payload parsed into ``scan.payloads``."""
    assert doc.startswith("<!DOCTYPE html>")
    lowered = doc.lower()
    for banned in ("http://", "https://", "<link", "<img", "@import", "src="):
        assert banned not in lowered, banned
    scan = PageScan()
    scan.feed(doc)
    scan.close()
    assert scan.mismatches == []
    assert scan.stack == []
    scan.payloads = [json.loads(blob) for blob in scan.json_blobs]
    return scan


def check_trace(doc: Dict[str, Any], phases: Iterable[str]) -> List[Dict[str, Any]]:
    """Assert the trace-event contract; returns the events."""
    json.dumps(doc, allow_nan=False)  # the on-disk format is strict JSON
    events = doc["traceEvents"]
    assert events
    phases = set(phases)
    for e in events:
        assert e["ph"] in phases, e
        assert isinstance(e["pid"], int) and "name" in e, e
        if e["ph"] == "X":
            assert e["dur"] >= 0 and e["ts"] >= 0, e
    return events
