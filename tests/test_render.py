"""The render kit (repro.obs.render): escaping, the trace writer, and
the import boundary that keeps it out of simulator processes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs.render import card, meta, table, trace_doc, write_trace


def test_table_escapes_text_cells():
    doc = table(("name", "value"), [("<evil>", "1")], num=(1,))
    assert "<evil>" not in doc and "&lt;evil&gt;" in doc
    assert '<td class="num">1</td>' in doc
    assert '<th class="num">value</th>' in doc


def test_card_escapes_title_and_unit():
    doc = card("a<b", "<table></table>", unit="it's")
    assert "a&lt;b" in doc and "it&#x27;s" in doc and "<table></table>" in doc


def test_write_trace_round_trips(tmp_path):
    doc = trace_doc([meta(1, "track", tid=2)], "tests")
    path = tmp_path / "t.json"
    write_trace(doc, str(path))
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == doc


def test_write_trace_rejects_nan(tmp_path):
    doc = trace_doc([{"ph": "C", "pid": 1, "name": "x", "args": {"value": float("nan")}}],
                    "tests")
    with pytest.raises(ValueError):
        write_trace(doc, str(tmp_path / "t.json"))


def test_simulator_imports_stay_off_the_kit():
    """Every simulator process imports these; the kit (and its html
    import) and the trace exporter must load only where a page or trace
    is rendered."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, repro.cluster, repro.experiments.testbed; "
            "print(sorted(m for m in ('repro.obs.render', 'repro.obs.export') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
