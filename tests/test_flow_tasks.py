"""The real reproduction DAG: registry integrity + the flat-runner contract."""

from __future__ import annotations

import json

from repro.experiments import claims
from repro.experiments.fig4 import QuotaPoint
from repro.flow.runner import FlowRunner
from repro.flow.state import run_key_for, task_key
from repro.flow.tasks import MODES, build_graph, task_names
from repro.units import MS, SEC

EXPECTED_SWEEPS = 16
EXPECTED_TASKS = 1 + 2 * EXPECTED_SWEEPS + 3 + 1  # calibrate, sweeps+renders, bench*3, report


class TestRegistry:
    def test_modes_validate_and_share_one_structure(self):
        names = {mode: task_names(mode) for mode in MODES}
        assert names["full"] == names["reduced"]
        assert len(names["full"]) == len(set(names["full"])) == EXPECTED_TASKS

    def test_every_sweep_is_gated_rendered_and_reported(self):
        graph = build_graph("full")
        sweeps = [t for t in graph.tasks if t.kind == "sweep"]
        assert len(sweeps) == EXPECTED_SWEEPS
        for task in sweeps:
            assert task.deps == ("calibrate",)
            assert f"render-{task.name}" in graph
        report = graph["report"]
        assert set(report.deps) == {f"render-{t.name}" for t in sweeps}
        # The regression gate must not be able to take the report with it.
        assert "bench-compare" not in report.deps
        assert graph["bench-compare"].deps == ("bench",)
        assert graph["dashboard"].deps == ("bench",)

    def test_full_mode_mirrors_flat_script_parameters(self):
        graph = build_graph("full")
        assert graph["table1"].kwargs["params"] == dict(
            seed=1, warmup_ns=200 * MS, measure_ns=500 * MS)
        assert graph["fig9"].kwargs["params"] == dict(
            seed=3, duration_ns=2 * SEC,
            configs=("Baseline", "PI", "PI+H", "PI+H+R"))
        assert graph["fig4-udp-1024"].kwargs["params"]["quotas"] == (32, 16, 8)
        assert graph["fig6-send"].kwargs["params"]["warmup_ns"] == 300 * MS
        assert graph["coalescing"].kwargs["params"]["seed"] == 5
        assert graph["schedsweep"].kwargs["params"]["duration_ns"] == int(0.8 * SEC)

    def test_reduced_mode_shrinks_every_sweep(self):
        full, reduced = build_graph("full"), build_graph("reduced")
        for task in full.tasks:
            if task.kind != "sweep":
                continue
            fp = task.kwargs["params"]
            rp = reduced[task.name].kwargs["params"]
            f_span = fp.get("measure_ns", fp.get("duration_ns"))
            r_span = rp.get("measure_ns", rp.get("duration_ns"))
            assert r_span < f_span, f"{task.name}: reduced window not shorter"
            assert rp["seed"] == fp["seed"], f"{task.name}: reduced mode changed the seed"

    def test_inner_jobs_ride_in_volatile_kwargs_only(self):
        g1 = build_graph("reduced", jobs=1)
        g8 = build_graph("reduced", jobs=8)
        for task in g1.tasks:
            if task.kind == "sweep":
                assert task.volatile == dict(jobs=1)
                assert "jobs" not in task.kwargs
        # Same structure and declarations -> same run directory, whatever
        # the worker count: resume works across -j values.
        assert run_key_for(g1.tasks, "reduced") == run_key_for(g8.tasks, "reduced")

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
        # Reduced mode runs trimmed windows; its budgets must be tighter.
        full, reduced = build_graph("full"), build_graph("reduced")
        for task in full.tasks:
            assert reduced[task.name].budget_s <= task.budget_s, task.name

    def test_budgets_never_reach_cache_or_run_keys(self):
        """Tuning a budget must not invalidate any cached work."""
        budgeted = build_graph("full")
        for task in budgeted.tasks:
            stripped = task.__class__(
                name=task.name, fn=task.fn, deps=task.deps, kwargs=task.kwargs,
                volatile=task.volatile, kind=task.kind,
                description=task.description, budget_s=None)
            assert task_key(task, {d: "x" for d in task.deps}) == \
                task_key(stripped, {d: "x" for d in task.deps}), task.name
        assert run_key_for(budgeted.tasks, "full") == run_key_for(
            [t.__class__(name=t.name, fn=t.fn, deps=t.deps, kwargs=t.kwargs,
                         volatile=t.volatile, kind=t.kind,
                         description=t.description, budget_s=None)
             for t in budgeted.tasks], "full")


class TestClaims:
    def test_every_sweep_but_schedsweep_is_gated_and_missing_input_fails(self):
        sweeps = {t.name for t in build_graph("full").tasks if t.kind == "sweep"}
        assert set(claims.CLAIMS) <= sweeps and sweeps - set(claims.CLAIMS) == {"schedsweep"}
        for task, table in claims.CLAIMS.items():
            assert table and claims.failed_claims(task, {}, "full") == [c[0] for c in table], task

    def test_full_only_claims_skip_in_reduced_mode_and_fail_in_full(self):
        grid = [QuotaPoint(None, 90_000.0, 95_000.0, 0.5),  # the reduced grid: no quota 8
                QuotaPoint(16, 1_900.0, 2_500.0, 0.7), QuotaPoint(4, 0.0, 900.0, 0.6)]
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
        assert f"dry run: {EXPECTED_TASKS} to run, 0 cached" in out
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
        from repro.experiments.table1 import FLOW_REDUCED, format_table1, run_table1

        graph = build_graph("reduced", jobs=1)
        runner = FlowRunner(graph, mode="reduced", state_root=tmp_path / "flow",
                            jobs=1, echo=None)
        result = runner.run(only=["render-table1"])
        assert result.ok
        assert set(result.executed) == {"calibrate", "table1", "render-table1"}

        direct = run_table1(seed=1, jobs=1, **FLOW_REDUCED)
        assert result.results["render-table1"] == format_table1(direct)

        # And the calibration gate recorded sane readouts on the way in.
        readout = result.results["calibrate"]
        assert readout["Baseline"]["throughput_gbps"] > 0
        assert readout["PI+H+R"]["interrupt_delivery_per_sec"] < \
            readout["Baseline"]["interrupt_delivery_per_sec"]


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
        graph = build_graph("reduced", jobs=1)
        for force in (False, True):
            result = FlowRunner(graph, mode="reduced", state_root=tmp_path,
                                jobs=1, echo=None).run(only=["table1"], force=force)
            assert "table1" in result.executed
        assert calls == ["Baseline", "PI"] * 2
