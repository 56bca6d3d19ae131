"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import inspect

import pytest

import repro.__main__ as cli
from repro.__main__ import build_parser, main
from repro.flow.tasks import build_graph


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

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


_FLOW_TASK_CLI = [
    ("fig6-send", ["fig6", "--direction", "send"], "fig6"),
    ("fig8-apache", ["fig8"], "fig8"),
    ("sriov", ["sriov"], "sriov"),
    ("table1", ["table1"], "table1"),  # control: agreed before the defaults moved
]


@pytest.mark.parametrize("task, argv, experiment", _FLOW_TASK_CLI,
                         ids=[case[0] for case in _FLOW_TASK_CLI])
def test_cli_defaults_are_flow_full_mode(monkeypatch, task, argv, experiment):
    """With no window or seed option, ``python -m repro <experiment>``
    computes what ``flow run`` full mode does: the run_* signature is the
    only home of each default."""
    runner = getattr(cli, f"run_{experiment}")
    calls = []

    def record(*args, **kwargs):
        bound = inspect.signature(runner).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return {}

    monkeypatch.setattr(cli, f"run_{experiment}", record)
    monkeypatch.setattr(cli, f"format_{experiment}", lambda *args: "")
    assert main(argv) == 0
    params = build_graph("full")[task].kwargs["params"]
    assert params in [{name: call[name] for name in params} for call in calls]
