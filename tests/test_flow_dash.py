"""The flow Gantt dashboard: self-contained, complete, accurate."""

from __future__ import annotations

import json

from repro.flow import cli
from repro.flow.graph import Task, TaskGraph
from repro.flow.runner import FlowRunner
from repro.obs.flowdash import render_flow_dashboard
from repro.obs.flowreport import flow_report

from tests.artifact_checks import check_page
from tests.test_flow import t_burn, t_sum


def _state(tmp_path, jobs=2):
    graph = TaskGraph([
        Task(name="cal", fn=t_burn, kwargs=dict(ms=20), kind="calibrate",
             budget_s=0.0001),  # guaranteed overrun -> badge rendered
        Task(name="sweep-x", fn=t_burn, deps=("cal",), kwargs=dict(ms=30),
             kind="sweep"),
        Task(name="sweep-y", fn=t_burn, deps=("cal",), kwargs=dict(ms=25),
             kind="sweep"),
        Task(name="agg", fn=t_sum, deps=("sweep-x", "sweep-y"), kind="report"),
    ])
    FlowRunner(graph, mode="full", state_root=tmp_path, jobs=jobs, echo=None).run()
    return json.loads((tmp_path / "flow-state.json").read_text())


class TestRender:
    def test_self_contained_html_with_all_sections(self, tmp_path):
        html = render_flow_dashboard(_state(tmp_path))
        check_page(html)
        assert "<script" not in html
        for section in ("Task Gantt", "Critical path", "Cache-hit map",
                        "Per-task resources", "<svg"):
            assert section in html, section
        for task in ("cal", "sweep-x", "sweep-y", "agg"):
            assert task in html, task
        # Budget overrun badge and queue-wait lane machinery present.
        assert "badge over" in html
        assert "qwait" in html

    def test_critical_path_tasks_are_highlighted(self, tmp_path):
        state = _state(tmp_path)
        report = flow_report(state)
        html = render_flow_dashboard(state, report=report)
        assert 'class="bar critical"' in html
        for name in report["critical_path"]["tasks"]:
            assert name in html

    def test_cache_hits_render_as_hollow_chips(self, tmp_path):
        state = _state(tmp_path, jobs=1)
        # Replay: every record flips to cached, the chips must say so.
        graph = TaskGraph([
            Task(name="cal", fn=t_burn, kwargs=dict(ms=20), kind="calibrate",
                 budget_s=0.0001),
            Task(name="sweep-x", fn=t_burn, deps=("cal",), kwargs=dict(ms=30),
                 kind="sweep"),
            Task(name="sweep-y", fn=t_burn, deps=("cal",), kwargs=dict(ms=25),
                 kind="sweep"),
            Task(name="agg", fn=t_sum, deps=("sweep-x", "sweep-y"), kind="report"),
        ])
        FlowRunner(graph, mode="full", state_root=tmp_path, jobs=1, echo=None).run()
        state = json.loads((tmp_path / "flow-state.json").read_text())
        html = render_flow_dashboard(state)
        assert 'class="chip cached"' in html
        assert 'class="bar cached' in html

    def test_empty_state_renders_without_chart(self):
        doc = {"schema": 2, "run_key": "empty", "mode": "full",
               "code_version": "cv", "last_run": {}, "tasks": {}}
        html = render_flow_dashboard(doc)
        assert "no executed tasks to chart" in html

    def test_flow_cli_writes_dashboard(self, tmp_path, capsys):
        _state(tmp_path / "state")
        out = tmp_path / "gantt.html"
        assert cli.main(["dashboard", "--state-dir", str(tmp_path / "state"),
                         "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
        assert str(out) in capsys.readouterr().out

    def test_task_names_are_escaped(self):
        doc = {"schema": 2, "run_key": "x", "mode": "full", "code_version": "cv",
               "last_run": {},
               "tasks": {"<evil>": {
                   "name": "<evil>", "status": "done", "kind": "task",
                   "deps": [], "wall_s": 1.0, "started_unix": 5.0,
                   "finished_unix": 6.0, "cached": False, "source": "executed",
                   "hit_count": 0, "cpu_user_s": 0.0, "cpu_sys_s": 0.0,
                   "peak_rss_kb": 0, "queue_wait_s": 0.0, "worker": "pid:1",
                   "budget_s": 0.0, "over_budget": False, "key": "k",
                   "digest": "d", "error": ""}}}
        html = render_flow_dashboard(doc)
        assert "<evil>" not in html and "&lt;evil&gt;" in html
