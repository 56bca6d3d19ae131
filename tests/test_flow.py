"""The DAG core: graph algebra, state schema, runner semantics, resume."""

from __future__ import annotations

import fcntl
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.fig7 import fig7_points
from repro.experiments.table1 import table1_points
from repro.flow.graph import FlowError, Task, TaskGraph
from repro.flow.runner import FlowRunner
from repro.flow.state import FlowState, RunDirectory, TaskRecord, output_digest, task_key
from repro.flow.tasks import sweep_tasks
from repro.parallel import run_sweep
from repro.units import MS

# -- module-level task callables (they must cross process boundaries) -----


def t_const(deps, value=1):
    return value


def t_sum(deps, add=0):
    return sum(deps.values()) + add


def t_flagged(deps, flag_path, value=10):
    """Fails while ``flag_path`` exists — the crash-mid-run stand-in."""
    if os.path.exists(flag_path):
        raise RuntimeError("simulated mid-run crash")
    return value + sum(deps.values())


def diamond(b_add=0):
    """a -> (b, c) -> d, the canonical dependency diamond."""
    return TaskGraph([
        Task(name="a", fn=t_const, kwargs=dict(value=1)),
        Task(name="b", fn=t_sum, deps=("a",), kwargs=dict(add=b_add)),
        Task(name="c", fn=t_sum, deps=("a",), kwargs=dict(add=100)),
        Task(name="d", fn=t_sum, deps=("b", "c")),
    ])


class TestGraph:
    def test_diamond_topological_order(self):
        order = diamond().topological_order()
        assert order.index("a") < order.index("b")
        assert order.index("a") < order.index("c")
        assert order.index("b") < order.index("d")
        assert order.index("c") < order.index("d")
        # Deterministic, insertion-seeded order — not just *a* valid order.
        assert order == ["a", "b", "c", "d"]

    def test_cycle_detected(self):
        graph = TaskGraph([
            Task(name="x", fn=t_const, deps=("y",)),
            Task(name="y", fn=t_const, deps=("x",)),
        ])
        with pytest.raises(FlowError, match="cycle"):
            graph.topological_order()

    def test_self_cycle_detected(self):
        graph = TaskGraph([Task(name="x", fn=t_const, deps=("x",))])
        with pytest.raises(FlowError, match="cycle"):
            graph.validate()

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph([Task(name="x", fn=t_const, deps=("ghost",))])
        with pytest.raises(FlowError, match="unknown task 'ghost'"):
            graph.validate()

    def test_duplicate_name_rejected(self):
        graph = TaskGraph([Task(name="x", fn=t_const)])
        with pytest.raises(FlowError, match="duplicate"):
            graph.add(Task(name="x", fn=t_const))

    def test_closure_pulls_ancestors_only(self):
        graph = diamond()
        assert graph.closure(["b"]) == ["a", "b"]
        assert graph.closure(["d"]) == ["a", "b", "c", "d"]
        with pytest.raises(FlowError, match="unknown task"):
            graph.closure(["nope"])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8)
_FUZZ = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _state_doc(field, value):
    """A valid state document with its ``field`` set to ``value``."""
    return {**FlowState(run_key="k", mode="full", tasks={"a": TaskRecord(name="a")}).to_dict(),
            field: value}


@pytest.fixture(scope="module")
def stored_result(tmp_path_factory):
    """The bytes ``store_result`` writes for a real (tiny) Table I sweep."""
    run_dir = RunDirectory(tmp_path_factory.mktemp("flow"), "k")
    run_dir.store_result("table1", run_sweep(table1_points(seed=1, warmup_ns=1 * MS,
                                                           measure_ns=2 * MS)))
    return run_dir.result_path("table1").read_bytes()


class TestState:
    @_FUZZ
    @given(doc=_JSON | st.builds(_state_doc, st.sampled_from(["schema", "last_run", "tasks"]), _JSON))
    def test_any_json_state_file_loads_or_starts_fresh(self, tmp_path, doc):
        (tmp_path / "flow-state.json").write_text(json.dumps(doc))
        assert isinstance(FlowState.load(tmp_path / "flow-state.json"), (FlowState, type(None)))

    @_FUZZ
    @given(data=st.data())
    def test_damaged_result_pickle_degrades_to_recompute(self, tmp_path, stored_result, data):
        """One flipped byte or a truncation loads as a miss: the stored
        checksum catches it, so a damaged value is never served."""
        pos = data.draw(st.integers(0, len(stored_result) - 1))
        damaged = bytearray(stored_result[:pos] if data.draw(st.booleans()) else stored_result)
        if len(damaged) > pos:
            damaged[pos] ^= data.draw(st.integers(1, 255))
        run_dir = RunDirectory(tmp_path, "k")
        run_dir.store_result("table1", None)
        run_dir.result_path("table1").write_bytes(bytes(damaged))
        assert run_dir.load_result("table1") == (False, None)

    def test_roundtrip(self, tmp_path):
        state = FlowState(run_key="k" * 16, mode="reduced")
        state.tasks["a"] = TaskRecord(name="a", status="done", kind="sweep",
                                      key="abc", digest="d1", wall_s=1.5, cached=False)
        state.tasks["b"] = TaskRecord(name="b", status="failed", error="boom")
        state.last_run = {"executed": 1, "failed": 1}
        path = tmp_path / "flow-state.json"
        state.save(path)
        loaded = FlowState.load(path)
        assert loaded is not None
        assert loaded.to_dict() == state.to_dict()

    def test_schema_mismatch_is_fresh_start(self, tmp_path):
        path = tmp_path / "flow-state.json"
        doc = FlowState(run_key="k", mode="full").to_dict()
        doc["schema"] = 999
        path.write_text(json.dumps(doc))
        assert FlowState.load(path) is None

    def test_corrupt_file_is_fresh_start(self, tmp_path):
        path = tmp_path / "flow-state.json"
        path.write_text("{not json")
        assert FlowState.load(path) is None

    def test_output_digest_stable_for_equal_values(self):
        assert output_digest({"b": 2, "a": 1}) == output_digest({"a": 1, "b": 2})
        assert output_digest([1, 2]) != output_digest([2, 1])

    def test_task_key_folds_dependency_digests(self):
        task = Task(name="d", fn=t_sum, deps=("b", "c"))
        base = task_key(task, {"b": "x1", "c": "y1"})
        assert task_key(task, {"b": "x1", "c": "y1"}) == base
        assert task_key(task, {"b": "CHANGED", "c": "y1"}) != base


def t_spy(deps, state_path, out_path):
    """Snapshot the state file mid-execution — the crash-mid-task probe:
    whatever this copy shows for the running task is exactly what a crash
    at this moment would leave behind."""
    import shutil

    shutil.copy(state_path, out_path)
    return 1


def t_burn(deps, ms=30):
    """Measurable wall + CPU: spin the interpreter for ~ms milliseconds."""
    import time

    end = time.perf_counter() + ms / 1000.0
    x = 0
    while time.perf_counter() < end:
        x += 1
    return x > 0


def run_quiet(runner, **kwargs):
    return runner.run(**kwargs)


class TestRunner:
    def test_executes_persists_and_resumes(self, tmp_path):
        r1 = FlowRunner(diamond(), mode="full", state_root=tmp_path, jobs=1, echo=None)
        first = run_quiet(r1)
        assert first.ok and set(first.executed) == {"a", "b", "c", "d"}
        assert first.results["d"] == 1 + (1 + 100)  # b=1, c=101
        doc = json.loads((tmp_path / "flow-state.json").read_text())
        assert doc["last_run"]["executed"] == 4
        # A fresh runner over the same graph resolves everything from disk.
        r2 = FlowRunner(diamond(), mode="full", state_root=tmp_path, jobs=1, echo=None)
        second = run_quiet(r2)
        assert second.executed == [] and set(second.cached) == {"a", "b", "c", "d"}
        assert second.results == first.results
        doc = json.loads((tmp_path / "flow-state.json").read_text())
        assert doc["last_run"]["executed"] == 0 and doc["last_run"]["cached"] == 4

    def test_incremental_rerun_only_downstream_of_change(self, tmp_path):
        run_quiet(FlowRunner(diamond(), mode="full", state_root=tmp_path,
                             jobs=1, echo=None))
        # Change b's declaration: b and its dependent d recompute; a, c don't.
        changed = FlowRunner(diamond(b_add=5), mode="full", state_root=tmp_path,
                             jobs=1, echo=None)
        result = run_quiet(changed)
        assert set(result.executed) == {"b", "d"}
        assert set(result.cached) == {"a", "c"}
        assert result.results["d"] == (1 + 5) + (1 + 100)

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_quiet(FlowRunner(diamond(), mode="full",
                                      state_root=tmp_path / "s", jobs=1, echo=None))
        parallel = run_quiet(FlowRunner(diamond(), mode="full",
                                        state_root=tmp_path / "p", jobs=2, echo=None))
        assert parallel.results == serial.results
        assert set(parallel.executed) == {"a", "b", "c", "d"}

    def test_only_runs_ancestor_closure(self, tmp_path):
        runner = FlowRunner(diamond(), mode="full", state_root=tmp_path,
                            jobs=1, echo=None)
        result = run_quiet(runner, only=["b"])
        assert set(result.executed) == {"a", "b"}
        assert "c" not in result.results and "d" not in result.results

    def _chain_with_flag(self, flag):
        """a -> b(flagged) -> c -> d, plus independent e."""
        return TaskGraph([
            Task(name="a", fn=t_const, kwargs=dict(value=1)),
            Task(name="b", fn=t_flagged, deps=("a",),
                 kwargs=dict(flag_path=str(flag))),
            Task(name="c", fn=t_sum, deps=("b",)),
            Task(name="d", fn=t_sum, deps=("c",)),
            Task(name="e", fn=t_const, kwargs=dict(value=7)),
        ])

    def test_failure_isolates_cone_and_finishes_rest(self, tmp_path):
        flag = tmp_path / "crash-flag"
        flag.write_text("")
        runner = FlowRunner(self._chain_with_flag(flag), mode="full",
                            state_root=tmp_path, jobs=1, echo=None)
        result = run_quiet(runner)
        assert not result.ok
        assert set(result.failed) == {"b"}
        assert set(result.skipped) == {"c", "d"}
        # Independent work still completed — nothing aborted the DAG.
        assert set(result.executed) == {"a", "e"}
        summary = "\n".join(result.summary_lines())
        assert "FAILED  b" in summary and "skipped c" in summary
        doc = json.loads((tmp_path / "flow-state.json").read_text())
        assert doc["tasks"]["b"]["status"] == "failed"
        assert "crash" in doc["tasks"]["b"]["error"]
        assert doc["tasks"]["d"]["status"] == "skipped"

    def test_crash_mid_run_resume(self, tmp_path):
        """Kill after task N: 1..N are cache hits on re-run, N+1.. execute."""
        flag = tmp_path / "crash-flag"
        flag.write_text("")
        run_quiet(FlowRunner(self._chain_with_flag(flag), mode="full",
                             state_root=tmp_path, jobs=1, echo=None))
        flag.unlink()  # the "crash" condition clears; declaration unchanged
        result = run_quiet(FlowRunner(self._chain_with_flag(flag), mode="full",
                                      state_root=tmp_path, jobs=1, echo=None))
        assert result.ok
        assert set(result.cached) == {"a", "e"}
        assert set(result.executed) == {"b", "c", "d"}
        assert result.results["d"] == 11  # b = 10 + a(1), passed down the chain

    def test_force_recomputes_everything(self, tmp_path):
        run_quiet(FlowRunner(diamond(), mode="full", state_root=tmp_path,
                             jobs=1, echo=None))
        result = run_quiet(FlowRunner(diamond(), mode="full", state_root=tmp_path,
                                      jobs=1, echo=None), force=True)
        assert set(result.executed) == {"a", "b", "c", "d"} and not result.cached

    def test_plan_classifies_without_executing(self, tmp_path):
        runner = FlowRunner(diamond(), mode="full", state_root=tmp_path,
                            jobs=1, echo=None)
        plan = runner.plan()
        assert [e["action"] for e in plan] == ["run"] * 4
        run_quiet(runner)
        assert [e["action"] for e in runner.plan()] == ["cached"] * 4
        # A changed upstream poisons the whole downstream cone in the plan.
        changed = FlowRunner(diamond(b_add=9), mode="full", state_root=tmp_path,
                             jobs=1, echo=None)
        actions = {e["task"]: e["action"] for e in changed.plan()}
        assert actions == {"a": "cached", "b": "run", "c": "cached", "d": "run"}

    def test_plan_and_run_agree_about_a_damaged_result(self, tmp_path):
        """A dry run must not call a result cached that the run would
        recompute: one flipped byte fails the checksum in both."""
        runner = FlowRunner(diamond(), mode="full", state_root=tmp_path,
                            jobs=1, echo=None)
        run_quiet(runner)
        path = runner.run_dir.result_path("b")
        damaged = bytearray(path.read_bytes())
        damaged[-1] ^= 0xFF
        path.write_bytes(bytes(damaged))
        actions = {e["task"]: e["action"] for e in runner.plan()}
        assert actions == {"a": "cached", "b": "run", "c": "cached", "d": "run"}
        # b recomputes to the same digest, so d's key holds and it stays cached.
        assert run_quiet(runner).executed == ["b"]

    def test_sched_policy_override_invalidates_points(self, tmp_path, monkeypatch):
        """``REPRO_SCHED_POLICY`` changes what a point computes, so a run
        under another policy must recompute, not serve the old digests."""
        graph = TaskGraph(sweep_tasks("fig7", fig7_points(duration_ns=20 * MS)))
        points = {t.name for t in graph.tasks if t.kind == "point"}
        monkeypatch.delenv("REPRO_SCHED_POLICY", raising=False)
        cfs = run_quiet(FlowRunner(graph, state_root=tmp_path, jobs=1, echo=None))
        monkeypatch.setenv("REPRO_SCHED_POLICY", "rr")
        rr = run_quiet(FlowRunner(graph, state_root=tmp_path, jobs=1, echo=None))
        assert cfs.ok and rr.ok and len(points) == 3
        assert points <= set(rr.executed) and not rr.cached
        again = run_quiet(FlowRunner(graph, state_root=tmp_path, jobs=1, echo=None))
        assert set(again.cached) == points | {"fig7"}


class TestRunLock:
    """One ``flow run`` per run directory."""

    def test_held_lock_refuses_at_once(self, tmp_path):
        runner = FlowRunner(diamond(), mode="full", state_root=tmp_path, jobs=1, echo=None)
        runner.run_dir.path.mkdir(parents=True)
        with open(runner.run_dir.path / "flow.lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(FlowError, match=str(runner.run_dir.path)):
                runner.run()
        assert not runner.run_dir.results_dir.exists()  # nothing ran
        assert run_quiet(runner).ok  # released: the next run proceeds

    def test_lock_released_after_return_and_raise(self, tmp_path):
        def boom(line):
            raise RuntimeError("echo failed")

        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            assert run_quiet(FlowRunner(diamond(), mode="full", state_root=root,
                                        jobs=jobs, echo=None)).ok
            with pytest.raises(RuntimeError, match="echo failed"):
                FlowRunner(diamond(), mode="full", state_root=root, jobs=jobs,
                           echo=boom).run(force=True)
            result = run_quiet(FlowRunner(diamond(), mode="full", state_root=root,
                                          jobs=jobs, echo=None))
            assert result.ok

    def test_cli_exits_2_while_another_run_holds_the_dir(self, tmp_path, capsys):
        from repro.flow.cli import main
        from repro.flow.tasks import build_graph

        run_dir = FlowRunner(build_graph("reduced"), mode="reduced",
                             state_root=tmp_path).run_dir.path
        run_dir.mkdir(parents=True)
        with open(run_dir / "flow.lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert main(["run", "--mode", "reduced", "--state-dir", str(tmp_path)]) == 2
        assert f"another flow run holds {run_dir}" in capsys.readouterr().err


class TestResourceAccounting:
    """Schema-v2 per-task accounting: migration, provenance, crash safety."""

    RESOURCE_FIELDS = ("cpu_user_s", "cpu_sys_s", "peak_rss_kb", "queue_wait_s",
                       "worker", "started_unix", "finished_unix", "budget_s",
                       "over_budget", "source", "hit_count", "deps")

    def _state_doc(self, tmp_path):
        return json.loads((tmp_path / "flow-state.json").read_text())

    def test_pre_v2_state_is_fresh_start_with_no_stale_fields(self, tmp_path):
        """A schema-1 state file (no resource fields) must not resume: the
        documented fresh-start path recomputes everything, and every record
        it leaves behind carries the full v2 field set."""
        v1 = {
            "schema": 1,
            "run_key": "stale", "mode": "full", "code_version": "old",
            "last_run": {"executed": 4},
            "tasks": {"a": {"name": "a", "status": "done", "kind": "task",
                            "key": "k", "digest": "d", "wall_s": 9.9,
                            "error": "", "cached": False}},
        }
        runner = FlowRunner(diamond(), mode="full", state_root=tmp_path,
                            jobs=1, echo=None)
        runner.run_dir.state_path.parent.mkdir(parents=True, exist_ok=True)
        runner.run_dir.state_path.write_text(json.dumps(v1))
        assert FlowState.load(runner.run_dir.state_path) is None
        result = run_quiet(runner)
        assert set(result.executed) == {"a", "b", "c", "d"}  # nothing resumed
        doc = self._state_doc(tmp_path)
        for rec in doc["tasks"].values():
            for field in self.RESOURCE_FIELDS:
                assert field in rec, field
        assert doc["tasks"]["a"]["wall_s"] != 9.9  # stale numbers gone

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_executed_records_carry_resources(self, tmp_path, jobs):
        graph = TaskGraph([
            Task(name="burn", fn=t_burn, kwargs=dict(ms=30), kind="bench"),
            Task(name="after", fn=t_sum, deps=("burn",)),
        ])
        run_quiet(FlowRunner(graph, mode="full", state_root=tmp_path,
                             jobs=jobs, echo=None))
        doc = self._state_doc(tmp_path)
        burn = doc["tasks"]["burn"]
        assert burn["source"] == "executed" and burn["hit_count"] == 0
        assert burn["wall_s"] > 0.0
        assert burn["cpu_user_s"] + burn["cpu_sys_s"] > 0.0  # it spun
        assert burn["worker"].startswith("pid:")
        assert burn["finished_unix"] > burn["started_unix"] > 0.0
        assert burn["queue_wait_s"] >= 0.0 and burn["peak_rss_kb"] >= 0
        assert doc["tasks"]["after"]["deps"] == ["burn"]
        # Downstream task became ready only when burn finished.
        assert doc["tasks"]["after"]["started_unix"] >= burn["started_unix"]

    def test_cache_hit_preserves_execution_provenance(self, tmp_path):
        run_quiet(FlowRunner(diamond(), mode="full", state_root=tmp_path,
                             jobs=1, echo=None))
        first = self._state_doc(tmp_path)["tasks"]["a"]
        run_quiet(FlowRunner(diamond(), mode="full", state_root=tmp_path,
                             jobs=1, echo=None))
        hit = self._state_doc(tmp_path)["tasks"]["a"]
        assert hit["cached"] and hit["source"] == "cache" and hit["hit_count"] == 1
        # The resource numbers still describe the execution that produced
        # the cached value — a hit must not zero or overwrite them.
        for field in ("wall_s", "cpu_user_s", "started_unix", "finished_unix",
                      "worker"):
            assert hit[field] == first[field], field

    def test_crash_mid_task_leaves_no_partial_resource_record(self, tmp_path):
        """The state snapshot taken *during* execution (== what a crash at
        that moment persists) shows the running task with every resource
        field reset — never a live status with a dead execution's numbers."""
        snapshot = tmp_path / "mid-run-state.json"
        graph = TaskGraph([
            Task(name="before", fn=t_burn, kwargs=dict(ms=5)),
            Task(name="spy", fn=t_spy, deps=("before",),
                 kwargs=dict(state_path=str(tmp_path / "flow-state.json"),
                             out_path=str(snapshot))),
        ])
        # Run twice so the spy's record has non-zero numbers to clear.
        run_quiet(FlowRunner(graph, mode="full", state_root=tmp_path,
                             jobs=1, echo=None))
        result = run_quiet(FlowRunner(graph, mode="full", state_root=tmp_path,
                                      jobs=1, echo=None), force=True)
        assert result.ok
        spy = json.loads(snapshot.read_text())["tasks"]["spy"]
        assert spy["status"] == "running"
        assert spy["wall_s"] == 0.0 and spy["cpu_user_s"] == 0.0
        assert spy["finished_unix"] == 0.0 and spy["worker"] == ""
        assert spy["source"] == "" and spy["hit_count"] == 0
        assert spy["started_unix"] > 0.0  # the submit stamp is the exception

    def test_budget_is_key_neutral_and_overruns_are_recorded(self, tmp_path):
        with_budget = Task(name="burn", fn=t_burn, kwargs=dict(ms=30),
                           budget_s=0.001)
        without = Task(name="burn", fn=t_burn, kwargs=dict(ms=30))
        assert task_key(with_budget, {}) == task_key(without, {})

        graph = TaskGraph([with_budget])
        result = run_quiet(FlowRunner(graph, mode="full", state_root=tmp_path,
                                      jobs=1, echo=None))
        assert result.ok  # budgets warn, never fail
        assert "burn" in result.over_budget and result.over_budget["burn"] > 0
        assert any("BUDGET" in line for line in result.summary_lines())
        rec = self._state_doc(tmp_path)["tasks"]["burn"]
        assert rec["over_budget"] and rec["budget_s"] == 0.001
        doc = self._state_doc(tmp_path)
        assert doc["last_run"]["over_budget"] == 1

    def test_generous_budget_is_met(self, tmp_path):
        graph = TaskGraph([Task(name="burn", fn=t_burn, kwargs=dict(ms=5),
                                budget_s=60.0)])
        result = run_quiet(FlowRunner(graph, mode="full", state_root=tmp_path,
                                      jobs=1, echo=None))
        assert result.ok and not result.over_budget
        rec = self._state_doc(tmp_path)["tasks"]["burn"]
        assert not rec["over_budget"] and rec["budget_s"] == 60.0
