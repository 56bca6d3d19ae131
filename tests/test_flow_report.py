"""Critical-path analysis: exact synthetic cases + real-run invariants.

The arithmetic invariants under test are the acceptance contract of
:mod:`repro.obs.flowreport`::

    critical_path_wall  <=  busy makespan  <=  total work
    total work  ==  sum of per-task walls

They must hold for *any* state document — synthetic, serial, parallel —
because the makespan is defined as the measure of the union of execution
intervals (see the module docstring).
"""

from __future__ import annotations

import json

import pytest

from repro.flow.graph import Task, TaskGraph
from repro.flow.runner import FlowRunner
from repro.obs.flowreport import critical_path, flow_report, format_flow_report

from tests.test_flow import t_burn, t_sum

#: Interval arithmetic happens at rebased (small) magnitude, so float
#: noise stays far below a microsecond; 1e-6 s is a generous tolerance.
TOL = 1e-6


def _rec(name, deps=(), wall=0.0, start=0.0, kind="task", **extra):
    rec = {
        "name": name, "status": "done", "kind": kind, "deps": list(deps),
        "wall_s": wall, "started_unix": start,
        "finished_unix": (start + wall) if start else 0.0,
        "cached": False, "source": "executed", "hit_count": 0,
        "cpu_user_s": 0.0, "cpu_sys_s": 0.0, "peak_rss_kb": 0,
        "queue_wait_s": 0.0, "worker": "pid:1", "key": "k-" + name,
        "digest": "d-" + name, "error": "",
    }
    rec.update(extra)
    return rec


def _doc(*recs):
    return {
        "schema": 2, "run_key": "synthetic", "mode": "full",
        "code_version": "cv", "last_run": {},
        "tasks": {rec["name"]: rec for rec in recs},
    }


def assert_invariants(report):
    cp = report["critical_path"]["wall_s"]
    mk = report["makespan_s"]
    tw = report["total_work_s"]
    assert cp <= mk + TOL, (cp, mk)
    assert mk <= tw + TOL, (mk, tw)
    assert tw == pytest.approx(
        sum(report["phases"][k]["wall_s"] for k in report["phases"]))


class TestSyntheticExact:
    """Hand-built states where every number is exactly checkable."""

    def test_serial_chain(self):
        # a(2s) -> b(3s) back to back: cp == makespan == total work.
        doc = _doc(_rec("a", wall=2.0, start=100.0),
                   _rec("b", deps=["a"], wall=3.0, start=102.0))
        report = flow_report(doc)
        assert report["critical_path"]["tasks"] == ["a", "b"]
        assert report["critical_path"]["wall_s"] == pytest.approx(5.0)
        assert report["makespan_s"] == pytest.approx(5.0)
        assert report["total_work_s"] == pytest.approx(5.0)
        assert report["parallel_efficiency"] == pytest.approx(1.0)
        assert_invariants(report)

    def test_parallel_diamond(self):
        # a(1s); then b(3s) and c(2s) overlap fully; d(1s).
        doc = _doc(
            _rec("a", wall=1.0, start=10.0),
            _rec("b", deps=["a"], wall=3.0, start=11.0),
            _rec("c", deps=["a"], wall=2.0, start=11.0),
            _rec("d", deps=["b", "c"], wall=1.0, start=14.0),
        )
        report = flow_report(doc)
        assert report["critical_path"]["tasks"] == ["a", "b", "d"]
        assert report["critical_path"]["wall_s"] == pytest.approx(5.0)
        assert report["makespan_s"] == pytest.approx(5.0)  # no idle gap
        assert report["total_work_s"] == pytest.approx(7.0)
        assert report["concurrency"]["peak"] == 2
        # 2s of the run had b+c in flight, 3s had exactly one task.
        assert report["concurrency"]["profile"] == {
            "1": pytest.approx(3.0), "2": pytest.approx(2.0)}
        assert_invariants(report)

    def test_idle_gap_shrinks_makespan_not_span(self):
        # Two 1s tasks separated by an 8s idle gap (external stall):
        # busy makespan counts 2s, span counts 10s — and the invariant
        # holds *because* makespan ignores the gap.  (Starts are nonzero:
        # started_unix == 0 means "never ran" by the schema contract.)
        doc = _doc(_rec("a", wall=1.0, start=1.0),
                   _rec("b", deps=["a"], wall=1.0, start=10.0))
        report = flow_report(doc)
        assert report["makespan_s"] == pytest.approx(2.0)
        assert report["span_s"] == pytest.approx(10.0)
        assert report["total_work_s"] == pytest.approx(2.0)
        assert_invariants(report)

    def test_epoch_magnitude_stamps_stay_precise(self):
        # Realistic unix-epoch stamps: the rebasing in _intervals keeps
        # sub-millisecond walls exact instead of drowning in float noise.
        base = 1.7e9
        doc = _doc(_rec("a", wall=0.0004, start=base),
                   _rec("b", deps=["a"], wall=0.0007, start=base + 0.0004))
        report = flow_report(doc)
        assert report["makespan_s"] == pytest.approx(0.0011, abs=1e-9)
        assert_invariants(report)

    def test_critical_path_beats_heavier_sibling_chain_sum(self):
        # cp follows the heaviest *chain*, not the heaviest task.
        doc = _doc(
            _rec("a", wall=1.0, start=0.0),
            _rec("big", deps=["a"], wall=4.0, start=1.0),
            _rec("s1", deps=["a"], wall=3.0, start=1.0),
            _rec("s2", deps=["s1"], wall=3.0, start=4.0),
        )
        chain, wall = critical_path(doc["tasks"])
        assert chain == ["a", "s1", "s2"] and wall == pytest.approx(7.0)

    def test_never_ran_tasks_do_not_pollute_intervals(self):
        doc = _doc(_rec("a", wall=1.0, start=5.0),
                   _rec("pending", wall=0.0, start=0.0, status="pending"))
        report = flow_report(doc)
        assert report["makespan_s"] == pytest.approx(1.0)
        assert report["statuses"] == {"done": 1, "pending": 1}
        assert_invariants(report)


class TestRealRuns:
    """The invariants hold on states the actual runner produced."""

    def _graph(self):
        return TaskGraph([
            Task(name="a", fn=t_burn, kwargs=dict(ms=40), kind="calibrate"),
            Task(name="b", fn=t_burn, deps=("a",), kwargs=dict(ms=60), kind="sweep"),
            Task(name="c", fn=t_burn, deps=("a",), kwargs=dict(ms=50), kind="sweep"),
            Task(name="d", fn=t_sum, deps=("b", "c"), kind="report"),
        ])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_invariants_and_structure(self, tmp_path, jobs):
        FlowRunner(self._graph(), mode="full", state_root=tmp_path,
                   jobs=jobs, echo=None).run()
        doc = json.loads((tmp_path / "flow-state.json").read_text())
        report = flow_report(doc)
        assert_invariants(report)
        assert report["total_work_s"] == pytest.approx(
            sum(rec["wall_s"] for rec in doc["tasks"].values()))
        # The cp must end at the sink and start at the source.
        cp_tasks = report["critical_path"]["tasks"]
        assert cp_tasks[0] == "a" and cp_tasks[-1] == "d"
        assert report["cache"]["executed"] == 4
        if jobs == 2:
            assert report["concurrency"]["peak"] >= 1
        text = format_flow_report(report)
        assert "critical path" in text and "parallel efficiency" in text

    def test_cached_rerun_keeps_report_stable(self, tmp_path):
        FlowRunner(self._graph(), mode="full", state_root=tmp_path,
                   jobs=1, echo=None).run()
        first = flow_report(json.loads((tmp_path / "flow-state.json").read_text()))
        FlowRunner(self._graph(), mode="full", state_root=tmp_path,
                   jobs=1, echo=None).run()
        second = flow_report(json.loads((tmp_path / "flow-state.json").read_text()))
        # Provenance preserved on hits -> the analysis describes the same
        # execution; only the cache block moves.
        assert second["total_work_s"] == pytest.approx(first["total_work_s"])
        assert second["critical_path"] == first["critical_path"]
        assert second["cache"]["cached"] == 4 and second["cache"]["executed"] == 0
        assert_invariants(second)
