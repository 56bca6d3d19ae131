"""The real reproduction DAG: registry integrity + the flat-runner contract."""

from __future__ import annotations

import json
import pickle

from repro.experiments import claims
from repro.experiments.fig4 import QuotaPoint
from repro.flow.runner import FlowRunner
from repro.flow.state import run_key_for, task_key
from repro.flow.tasks import MODES, build_graph, merge_task, task_names
from repro.parallel import run_sweep
from repro.units import MS, SEC

EXPECTED_SWEEPS = 16  # 15 point sweeps (a merge task each) + rack
EXPECTED_POINTS = {"full": 134, "reduced": 77}
EXPECTED_SKELETON = 1 + 2 * EXPECTED_SWEEPS + 3 + 1  # calibrate, sweeps+renders, bench*3, report
EXPECTED_TASKS = {mode: EXPECTED_SKELETON + n for mode, n in EXPECTED_POINTS.items()}


def _grid(graph, sweep):
    """Each point's kwargs for a merged sweep; the run parameters for rack."""
    task = graph[sweep]
    if task.fn is merge_task:
        return [graph[point].kwargs["params"] for point in task.deps]
    return [task.kwargs["params"]]


class TestRegistry:
    def test_modes_validate_and_share_one_structure(self):
        """Both modes share every task but the points (reduced mode trims
        the grids)."""
        skeleton = {}
        for mode in MODES:
            graph = build_graph(mode)
            names = task_names(mode)
            assert len(names) == len(set(names)) == EXPECTED_TASKS[mode]
            assert sum(t.kind == "point" for t in graph.tasks) == EXPECTED_POINTS[mode]
            skeleton[mode] = [t.name for t in graph.tasks if t.kind != "point"]
        assert skeleton["full"] == skeleton["reduced"]
        assert len(skeleton["full"]) == EXPECTED_SKELETON

    def test_every_sweep_is_gated_rendered_and_reported(self):
        graph = build_graph("full")
        sweeps = [t for t in graph.tasks if t.kind == "sweep"]
        assert len(sweeps) == EXPECTED_SWEEPS
        merged = set()
        for task in sweeps:
            assert f"render-{task.name}" in graph
            if task.name == "rack":
                assert task.deps == ("calibrate",)
                continue
            # A merge over exactly one task per point, each gated by calibrate.
            assert task.fn is merge_task and task.deps
            assert [key_name for key_name, _ in task.kwargs["keys"]] == list(task.deps)
            for point in task.deps:
                assert graph[point].kind == "point" and graph[point].deps == ("calibrate",)
            merged.update(task.deps)
        assert merged == {t.name for t in graph.tasks if t.kind == "point"}
        report = graph["report"]
        assert set(report.deps) == {f"render-{t.name}" for t in sweeps}
        # The regression gate must not be able to take the report with it.
        assert "bench-compare" not in report.deps
        assert graph["bench-compare"].deps == ("bench",)
        assert graph["dashboard"].deps == ("bench",)

    def test_whole_tasks_start_first_and_report_keeps_section_order(self):
        """The runner submits ready tasks in topological order: bench and
        rack, the longest whole tasks, go ahead of every point."""
        graph = build_graph("reduced")
        order = graph.topological_order()
        first_point = min(i for i, name in enumerate(order) if graph[name].kind == "point")
        assert order[:3] == ["calibrate", "bench", "rack"] and first_point == 3
        sections = [name for _, name in graph["report"].kwargs["sections"]]
        assert sections[0] == "render-table1" and sections[-1] == "render-rack"

    def test_point_names_are_stable_file_names(self):
        for mode in MODES:
            graph = build_graph(mode)
            for sweep in (t for t in graph.tasks if t.fn is merge_task):
                for point in sweep.deps:
                    assert point.startswith(f"{sweep.name}:") and "/" not in point
                    assert " " not in point and "(" not in point, point
            assert task_names(mode) == [t.name for t in graph.tasks]
        assert "ablation:PI_no_redirect" in build_graph("reduced")
        assert "fig5:tcp,send,PI+H" in build_graph("reduced")

    def test_full_mode_mirrors_flat_script_parameters(self):
        graph = build_graph("full")
        table1 = _grid(graph, "table1")
        assert [p["name"] for p in table1] == ["Baseline", "PI"]
        for params in table1:
            assert (params["seed"], params["warmup_ns"], params["measure_ns"]) == \
                (1, 200 * MS, 500 * MS)
        fig9 = _grid(graph, "fig9")
        assert {p["name"] for p in fig9} == {"Baseline", "PI", "PI+H", "PI+H+R"}
        assert {(p["seed"], p["duration_ns"]) for p in fig9} == {(3, 2 * SEC)}
        assert [p["quota"] for p in _grid(graph, "fig4-udp-1024")] == [None, 32, 16, 8]
        assert {p["warmup_ns"] for p in _grid(graph, "fig6-send")} == {300 * MS}
        assert {p["seed"] for p in _grid(graph, "coalescing")} == {5}
        assert {p["duration_ns"] for p in _grid(graph, "schedsweep")} == {int(0.8 * SEC)}

    def test_reduced_mode_shrinks_every_sweep(self):
        full, reduced = build_graph("full"), build_graph("reduced")
        for task in full.tasks:
            if task.kind != "sweep":
                continue
            fp = _grid(full, task.name)[0]
            rp = _grid(reduced, task.name)[0]
            f_span = fp.get("measure_ns", fp.get("duration_ns"))
            r_span = rp.get("measure_ns", rp.get("duration_ns"))
            assert r_span < f_span, f"{task.name}: reduced window not shorter"
            assert rp["seed"] == fp["seed"], f"{task.name}: reduced mode changed the seed"
            assert len(reduced[task.name].deps) <= len(task.deps), task.name

    def test_worker_count_never_reaches_the_run_directory(self, capsys, tmp_path):
        """``--jobs`` is the runner's alone: the graph is the same whatever
        the worker count, so resume works across -j values."""
        from repro.flow.cli import main

        lines = []
        for jobs in ("1", "2"):
            assert main(["run", "--mode", "reduced", "--dry-run", "--jobs", jobs,
                         "--state-dir", str(tmp_path)]) == 0
            lines.append(capsys.readouterr().out.splitlines()[-1])
        assert lines[0] == lines[1] and "(state: " in lines[0]

    def test_run_keys_stable_across_builds_and_scoped_by_mode(self):
        assert run_key_for(build_graph("full").tasks, "full") == \
            run_key_for(build_graph("full").tasks, "full")
        assert run_key_for(build_graph("full").tasks, "full") != \
            run_key_for(build_graph("reduced").tasks, "reduced")

    def test_every_task_declares_a_budget_in_both_modes(self):
        for mode in MODES:
            for task in build_graph(mode).tasks:
                assert task.budget_s and task.budget_s > 0, \
                    f"{mode}/{task.name}: no wall budget declared"
        # Reduced mode runs trimmed windows; its budgets must be tighter
        # (the points full mode adds have no reduced counterpart).
        full, reduced = build_graph("full"), build_graph("reduced")
        for task in full.tasks:
            if task.name in reduced:
                assert reduced[task.name].budget_s <= task.budget_s, task.name

    def test_budgets_never_reach_cache_or_run_keys(self):
        """Tuning a budget must not invalidate any cached work."""
        budgeted = build_graph("full")
        for task in budgeted.tasks:
            stripped = task.__class__(
                name=task.name, fn=task.fn, deps=task.deps, kwargs=task.kwargs,
                kind=task.kind, description=task.description, budget_s=None)
            assert task_key(task, {d: "x" for d in task.deps}) == \
                task_key(stripped, {d: "x" for d in task.deps}), task.name
        assert run_key_for(budgeted.tasks, "full") == run_key_for(
            [t.__class__(name=t.name, fn=t.fn, deps=t.deps, kwargs=t.kwargs,
                         kind=t.kind, description=t.description, budget_s=None)
             for t in budgeted.tasks], "full")


class TestClaims:
    def test_every_sweep_but_schedsweep_is_gated_and_missing_input_fails(self):
        sweeps = {t.name for t in build_graph("full").tasks if t.kind == "sweep"}
        assert set(claims.CLAIMS) <= sweeps and sweeps - set(claims.CLAIMS) == {"schedsweep"}
        for task, table in claims.CLAIMS.items():
            assert table and claims.failed_claims(task, {}, "full") == [c[0] for c in table], task

    def test_full_only_claims_skip_in_reduced_mode_and_fail_in_full(self):
        grid = {None: QuotaPoint(None, 90_000.0, 95_000.0, 0.5),  # the reduced grid: no quota 8
                16: QuotaPoint(16, 1_900.0, 2_500.0, 0.7), 4: QuotaPoint(4, 0.0, 900.0, 0.6)}
        assert claims.failed_claims("fig4-udp", grid, "reduced") == []
        assert claims.failed_claims("fig4-udp", grid, "full") == [
            "UDP 256 B: quota 8 I/O exits < 2k/s", "UDP 256 B: quota 8 I/O exits < Baseline/20"]

    def test_broken_claim_fails_the_run_and_names_it(self, capsys, tmp_path, monkeypatch):
        from repro.flow.cli import main

        broken = ("PI has 7 Others exits", lambda r: r["PI"].exit_rates.others == 7, claims.BOTH)
        monkeypatch.setitem(claims.CLAIMS, "table1", claims.CLAIMS["table1"] + (broken,))
        assert main(["run", "--mode", "reduced", "--only", "render-table1", "--jobs", "1",
                     "--state-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAILED  render-table1" in out
        assert "table1: paper claim failed: PI has 7 Others exits" in out


class TestCli:
    def test_list_prints_the_dag(self, capsys):
        from repro.flow.cli import main

        assert main(["list", "--mode", "reduced"]) == 0
        out = capsys.readouterr().out
        for name in ("calibrate", "table1", "render-fig9", "bench-compare", "report"):
            assert name in out

    def test_dry_run_classifies_without_executing(self, capsys, tmp_path):
        from repro.flow.cli import main

        rc = main(["run", "--mode", "reduced", "--dry-run",
                   "--state-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"dry run: {EXPECTED_TASKS['reduced']} to run, 0 cached" in out
        # Nothing executed: no run directory contents beyond the state root.
        assert not any(p.suffix == ".pkl" for p in tmp_path.rglob("*"))

    def test_unknown_only_target_exits_2(self, capsys, tmp_path):
        from repro.flow.cli import main

        rc = main(["run", "--only", "no-such-task", "--dry-run",
                   "--state-dir", str(tmp_path)])
        assert rc == 2
        assert "unknown task" in capsys.readouterr().err

    def test_status_json_is_the_full_machine_readable_state(self, capsys, tmp_path):
        from repro.flow.cli import main
        from tests.test_flow import diamond

        FlowRunner(diamond(), mode="full", state_root=tmp_path,
                   jobs=1, echo=None).run()
        assert main(["status", "--state-dir", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 2 and set(doc["tasks"]) == {"a", "b", "c", "d"}
        rec = doc["tasks"]["a"]
        # Per-task status, key, wall, and the full resource accounting.
        for field in ("status", "key", "digest", "wall_s", "cpu_user_s",
                      "cpu_sys_s", "peak_rss_kb", "queue_wait_s", "worker",
                      "started_unix", "finished_unix", "source", "deps"):
            assert field in rec, field
        assert rec["status"] == "done" and rec["source"] == "executed"

    def test_status_json_without_state_exits_1(self, capsys, tmp_path):
        from repro.flow.cli import main

        assert main(["status", "--state-dir", str(tmp_path), "--json"]) == 1


class TestFlatRunnerContract:
    def test_flow_output_byte_identical_to_flat_call(self, tmp_path):
        """The acceptance criterion: the DAG produces the same bytes the
        flat script's direct call does, for the same parameters."""
        from repro.experiments.table1 import FLOW_REDUCED, format_table1, table1_points

        graph = build_graph("reduced")
        runner = FlowRunner(graph, mode="reduced", state_root=tmp_path / "flow",
                            jobs=1, echo=None)
        result = runner.run(only=["render-table1"])
        assert result.ok
        assert set(result.executed) == {"calibrate", "table1:Baseline", "table1:PI",
                                        "table1", "render-table1"}

        direct = run_sweep(table1_points(seed=1, **FLOW_REDUCED))
        merged = result.results["table1"]
        assert list(merged) == list(direct) == ["Baseline", "PI"]
        assert {k: pickle.dumps(v) for k, v in merged.items()} == \
            {k: pickle.dumps(v) for k, v in direct.items()}
        assert result.results["render-table1"] == format_table1(direct)

        # And the calibration gate recorded sane readouts on the way in.
        readout = result.results["calibrate"]
        assert readout["Baseline"]["throughput_gbps"] > 0
        assert readout["PI+H+R"]["interrupt_delivery_per_sec"] < \
            readout["Baseline"]["interrupt_delivery_per_sec"]

    def test_only_one_point_runs_its_closure(self, tmp_path):
        result = FlowRunner(build_graph("reduced"), mode="reduced", state_root=tmp_path,
                            jobs=1, echo=None).run(only=["table1:PI"])
        assert result.ok and result.executed == ["calibrate", "table1:PI"]
        assert result.results["table1:PI"].config == "PI"


class TestForce:
    def test_force_recomputes_every_sweep_point(self, tmp_path, monkeypatch):
        """The task cache is the only result cache: ``force=True`` must
        run every point again, not read it back from anywhere."""
        from repro.experiments import table1

        calls = []
        original = table1._table1_point

        def recording_point(**kwargs):
            calls.append(kwargs["name"])
            return original(**kwargs)

        monkeypatch.setattr(table1, "_table1_point", recording_point)
        graph = build_graph("reduced")
        for force in (False, True):
            result = FlowRunner(graph, mode="reduced", state_root=tmp_path,
                                jobs=1, echo=None).run(only=["table1"], force=force)
            assert "table1" in result.executed
        assert calls == ["Baseline", "PI"] * 2
