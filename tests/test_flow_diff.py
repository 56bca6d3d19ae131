"""Cross-run diffing: the replay gate, change attribution, bench deltas."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.flow.cli import main as flow_main
from repro.flow.diff import flow_diff, format_flow_diff, resolve_state_path
from repro.flow.graph import FlowError, Task, TaskGraph
from repro.flow.runner import FlowRunner

from tests.test_flow import diamond, t_const


def _run(graph, root, **kwargs):
    runner = FlowRunner(graph, mode="full", state_root=root, jobs=1, echo=None)
    runner.run(**kwargs)
    return runner


class TestResolution:
    def test_state_file_run_dir_and_root_all_resolve(self, tmp_path):
        runner = _run(diamond(), tmp_path)
        direct = resolve_state_path(str(runner.run_dir.state_path))
        from_run_dir = resolve_state_path(str(runner.run_dir.path))
        from_root_mirror = resolve_state_path(str(tmp_path))
        assert direct == runner.run_dir.state_path == from_run_dir
        # The root holds the mirror copy — same document, different file.
        assert json.loads(from_root_mirror.read_text())["run_key"] == \
            json.loads(direct.read_text())["run_key"]

    def test_missing_state_is_a_flow_error(self, tmp_path):
        with pytest.raises(FlowError, match="no flow-state.json"):
            resolve_state_path(str(tmp_path / "nowhere"))


class TestDiff:
    def test_cold_vs_warm_is_clean(self, tmp_path):
        """The acceptance gate: a warm replay recomputes nothing and moves
        no output digest relative to its own cold run."""
        root = tmp_path / "state"
        _run(diamond(), root)
        cold = tmp_path / "cold.json"
        shutil.copy(root / "flow-state.json", cold)
        _run(diamond(), root)  # warm: everything resolves from cache
        diff = flow_diff(str(cold), str(root))
        assert diff["clean"]
        assert diff["recomputed_in_b"] == []
        assert diff["digest_changed"] == []
        assert diff["key_changed"] == []
        assert diff["status_changed"] == []
        assert diff["only_in_a"] == [] and diff["only_in_b"] == []
        text = format_flow_diff(diff)
        assert "CLEAN" in text and "recomputed in B: none" in text

    def test_declaration_change_attributes_the_downstream_cone(self, tmp_path):
        root = tmp_path / "state"
        _run(diamond(), root)
        cold = tmp_path / "cold.json"
        shutil.copy(root / "flow-state.json", cold)
        _run(diamond(b_add=7), root)  # b's kwargs changed -> b, d recompute
        diff = flow_diff(str(cold), str(root))
        assert not diff["clean"]
        assert diff["recomputed_in_b"] == ["b", "d"]
        assert sorted(e["task"] for e in diff["key_changed"]) == ["b", "d"]
        assert sorted(e["task"] for e in diff["digest_changed"]) == ["b", "d"]
        assert "CHANGED" in format_flow_diff(diff)

    def test_disjoint_task_sets_are_listed(self, tmp_path):
        a_root, b_root = tmp_path / "a", tmp_path / "b"
        _run(diamond(), a_root)
        _run(TaskGraph([Task(name="solo", fn=t_const)]), b_root)
        diff = flow_diff(str(a_root), str(b_root))
        assert diff["only_in_a"] == ["a", "b", "c", "d"]
        assert diff["only_in_b"] == ["solo"]

    def test_bench_reports_compared_when_both_runs_have_them(self, tmp_path):
        def fake_bench(gbps):
            return {"schema": {"name": "repro-bench", "version": 1},
                    "revision": "t", "throughput":
                        {"udp": {"throughput_gbps": gbps}}}

        roots = []
        for side, gbps in (("a", 10.0), ("b", 5.0)):  # 50% drop: regression
            root = tmp_path / side
            runner = _run(diamond(), root)
            runner.run_dir.store_result("bench", fake_bench(gbps))
            roots.append(root)
        diff = flow_diff(str(roots[0]), str(roots[1]))
        bench = diff["bench"]
        assert bench["available"]
        assert any("throughput[udp]" in line for line in bench["lines"])
        assert bench["regressions"], "a 50% drop must trip the CI thresholds"
        assert "bench metric deltas" in format_flow_diff(diff)

    def test_bench_block_degrades_when_absent(self, tmp_path):
        a_root, b_root = tmp_path / "a", tmp_path / "b"
        _run(diamond(), a_root)
        _run(diamond(), b_root)
        diff = flow_diff(str(a_root), str(b_root))
        assert not diff["bench"]["available"]
        assert "missing" in diff["bench"]["reason"]


class TestCli:
    def _two_runs(self, tmp_path, changed=False):
        root = tmp_path / "state"
        _run(diamond(), root)
        cold = tmp_path / "cold.json"
        shutil.copy(root / "flow-state.json", cold)
        _run(diamond(b_add=3) if changed else diamond(), root)
        return str(cold), str(root)

    def test_diff_json_output(self, tmp_path, capsys):
        cold, root = self._two_runs(tmp_path)
        assert flow_main(["diff", cold, root, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] and doc["recomputed_in_b"] == []

    def test_assert_no_changes_passes_on_clean_replay(self, tmp_path, capsys):
        cold, root = self._two_runs(tmp_path)
        assert flow_main(["diff", cold, root, "--assert-no-changes"]) == 0

    def test_assert_no_changes_exit_4_on_drift(self, tmp_path, capsys):
        cold, root = self._two_runs(tmp_path, changed=True)
        assert flow_main(["diff", cold, root, "--assert-no-changes"]) == 4
        assert "assert-no-changes FAILED" in capsys.readouterr().err

    def test_diff_missing_path_exit_2(self, tmp_path, capsys):
        cold, _ = self._two_runs(tmp_path)
        assert flow_main(["diff", cold, str(tmp_path / "ghost")]) == 2
