"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import repro.__main__ as cli
from repro.__main__ import build_parser, main
from repro.flow.tasks import build_graph


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["bench", "dashboard"])
    def test_bench_report_has_no_command_of_its_own(self, command, capsys):
        """The flow's ``bench`` tasks are the report's only producer."""
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_fig4_protocol_choices(self):
        args = build_parser().parse_args(["fig4", "--protocol", "tcp"])
        assert args.protocol == "tcp"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--protocol", "sctp"])

    def test_fig6_sizes(self):
        args = build_parser().parse_args(["fig6", "--sizes", "512", "1448"])
        assert args.sizes == [512, 1448]

    def test_common_options(self):
        args = build_parser().parse_args(["table1", "--seed", "9", "--measure-ms", "100"])
        assert args.seed == 9
        assert args.measure_ms == 100


class TestExecution:
    def test_table1_runs(self, capsys):
        assert main(["table1", "--warmup-ms", "40", "--measure-ms", "80"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "PI (Exits/s)" in out

    def test_fig4_single_protocol_runs(self, capsys):
        assert main(["fig4", "--protocol", "udp", "--warmup-ms", "40", "--measure-ms", "80"]) == 0
        out = capsys.readouterr().out
        assert "UDP sending" in out
        assert "quota=2" in out

    def test_same_stdout_under_any_jobs_and_nothing_cached(self, capsys, tmp_path,
                                                           monkeypatch):
        """The points run as flow tasks in a throwaway state directory: the
        worker count cannot change the tables, and the flow root stays empty."""
        monkeypatch.setenv("REPRO_FLOW_DIR", str(tmp_path))
        outs = []
        for jobs in ("1", "2"):
            assert main(["fig4", "--protocol", "udp", "--warmup-ms", "5",
                         "--measure-ms", "10", "--jobs", jobs]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "quota=2" in outs[0]
        assert list(tmp_path.iterdir()) == []

    def test_failing_point_exits_1_with_traceback(self, capsys, monkeypatch):
        from repro.experiments import table1

        def broken_point(**kwargs):
            raise RuntimeError(f"point {kwargs['name']} broke")

        monkeypatch.setattr(table1, "_table1_point", broken_point)
        assert main(["table1", "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err and "point Baseline broke" in captured.err


_FLOW_TASK_CLI = [
    ("fig6-send", ["fig6", "--direction", "send"], "fig6"),
    ("fig8-apache", ["fig8"], "fig8"),
    ("sriov", ["sriov"], "sriov"),
    ("rack", ["rack"], "rack"),
    ("table1", ["table1"], "table1"),  # control: agreed before the defaults moved
]


@pytest.mark.parametrize("task, argv, experiment", _FLOW_TASK_CLI,
                         ids=[case[0] for case in _FLOW_TASK_CLI])
def test_cli_defaults_are_flow_full_mode(monkeypatch, task, argv, experiment):
    """With no window or seed option, ``python -m repro <experiment>``
    declares the points ``flow run`` full mode does: the <x>_points
    signature is the only home of each default."""
    graphs = []

    class RecordingRunner:
        def __init__(self, graph, **kwargs):
            graphs.append(graph)

        def run(self):
            return SimpleNamespace(failed={}, results=dict.fromkeys(
                (t.name for t in graphs[-1].tasks), {}))

    monkeypatch.setattr(cli, "FlowRunner", RecordingRunner)
    monkeypatch.setattr(cli, f"format_{experiment}", lambda *args: "")
    assert main(argv) == 0

    def points(graph, sweep):
        return [graph[point].kwargs for point in graph[sweep].deps]

    full = build_graph("full")
    declared = [points(graph, t.name) for graph in graphs for t in graph.tasks
                if t.kind == "sweep"]
    assert points(full, task) in declared
