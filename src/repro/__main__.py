"""Command-line entry point: run paper experiments from the shell.

Examples::

    python -m repro table1
    python -m repro fig4 --protocol tcp
    python -m repro fig6 --direction receive --sizes 512 1448
    python -m repro fig7
    python -m repro fig9 --rates 800 1800 2600
    python -m repro sriov

Options left out fall back to the experiment's own ``<x>_points``
defaults, the ``flow run`` full-mode parameters; the points run as flow
tasks in a throwaway state directory, so nothing is cached.  The whole
reproduction, cached and resumable, is ``python -m repro flow run --print-report``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.experiments.ablations import format_redirect_ablation, redirect_policy_ablation_points
from repro.experiments.coalescing import coalescing_points, format_coalescing
from repro.experiments.fig4 import fig4_points, format_fig4
from repro.experiments.fig5 import fig5_points, format_fig5
from repro.experiments.fig6 import fig6_points, format_fig6
from repro.experiments.fig7 import fig7_points, format_fig7
from repro.experiments.fig8 import fig8_points, format_fig8
from repro.experiments.fig9 import fig9_points, format_fig9
from repro.experiments.rack import (
    DEFAULT_RACK_CONFIGS,
    DEFAULT_SHARD_COUNTS,
    format_rack,
    rack_points,
    rack_trace,
    showcase_key,
)
from repro.experiments.schedzoo import format_sched_sweep, sched_sweep_points
from repro.experiments.sriov import format_sriov, sriov_points
from repro.experiments.table1 import format_table1, table1_points
from repro.flow.graph import TaskGraph
from repro.flow.runner import FlowRunner
from repro.flow.tasks import sweep_tasks
from repro.units import MS


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="simulation seed")
    p.add_argument("--warmup-ms", type=int, default=None,
                   help="warm-up window (default: the experiment's own)")
    p.add_argument("--measure-ms", type=int, default=None,
                   help="measurement window (default: the experiment's own)")
    p.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes for the sweep points (0 = all CPUs, 1 = serial)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the tables and figures of the ES2 paper (ICPP 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("table1", "fig5", "fig8", "sriov", "ablation", "coalescing"):
        p = sub.add_parser(name)
        _add_common(p)

    p = sub.add_parser("fig4")
    _add_common(p)
    p.add_argument("--protocol", choices=("udp", "tcp", "both"), default="both")

    p = sub.add_parser("fig6")
    _add_common(p)
    p.add_argument("--direction", choices=("send", "receive", "both"), default="both")
    p.add_argument("--sizes", type=int, nargs="+", default=None)

    p = sub.add_parser("fig7")
    _add_common(p)
    p.add_argument("--duration-ms", type=int, default=None)

    p = sub.add_parser("fig9")
    _add_common(p)
    p.add_argument("--rates", type=int, nargs="+", default=None)
    p.add_argument("--duration-ms", type=int, default=None)

    p = sub.add_parser(
        "rack",
        help="sharded rack: multi-host fan-out, ES2 on/off, shard-count scaling",
    )
    _add_common(p)
    p.add_argument("--shards", type=int, nargs="+",
                   default=list(DEFAULT_SHARD_COUNTS),
                   help="shard counts to compare (default: 1 4)")
    p.add_argument("--configs", nargs="+", default=list(DEFAULT_RACK_CONFIGS))
    p.add_argument("--application", choices=("memcached", "apache"),
                   default="memcached")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write the showcase cell's merged (per-shard track "
                        "groups + stitched paths) Perfetto JSON here")
    p.add_argument("--dashboard", metavar="PATH", default=None,
                   help="write the showcase cell's rack observability "
                        "dashboard HTML here")

    p = sub.add_parser(
        "schedsweep",
        help="policy zoo: ping RTT across redirection x scheduler policy x adaptive allocation",
    )
    _add_common(p)
    p.add_argument("--policies", nargs="+", default=None,
                   choices=("cfs", "rr", "mlfq", "deadline"))
    p.add_argument("--redirection", nargs="+", default=None,
                   choices=("off", "hybrid", "on"))
    p.add_argument("--adaptive", choices=("off", "on", "both"), default="both")
    p.add_argument("--duration-ms", type=int, default=None)

    # `repro trace` owns its arguments (repro.obs.tracecli).
    p = sub.add_parser(
        "trace",
        help="record per-request event-path spans; print the stage attribution report",
        add_help=False,
    )

    # `repro flow` likewise owns its arguments (repro.flow.cli): the
    # DAG-driven, resumable replacement for running experiments one by one.
    p = sub.add_parser(
        "flow",
        help="run the experiment DAG with resumable per-task state (run/list/status)",
        add_help=False,
    )

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "trace":
        # The trace CLI owns its full argument set (including --help).
        from repro.obs.tracecli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "flow":
        from repro.flow.cli import main as flow_main

        return flow_main(argv[1:])
    args = build_parser().parse_args(argv)

    # Only the options the user gave reach a grid; the rest fall back to
    # the <x>_points signature, the one home of every default.
    common = {}
    if args.seed is not None:
        common["seed"] = args.seed
    window = {}
    if args.warmup_ms is not None:
        window["warmup_ns"] = args.warmup_ms * MS
    if args.measure_ms is not None:
        window["measure_ns"] = args.measure_ms * MS
    duration = {}
    if getattr(args, "duration_ms", None) is not None:
        duration["duration_ns"] = args.duration_ms * MS

    cmd = args.command
    # (points, formatter, format args) per table, in print order.
    if cmd == "table1":
        tables = [(table1_points(**common, **window), format_table1, ())]
    elif cmd == "fig4":
        protos = ("udp", "tcp") if args.protocol == "both" else (args.protocol,)
        tables = [(fig4_points(proto, **common, **window), format_fig4, (proto,))
                  for proto in protos]
    elif cmd == "fig5":
        tables = [(fig5_points(**common, **window), format_fig5, ())]
    elif cmd == "fig6":
        directions = ("send", "receive") if args.direction == "both" else (args.direction,)
        sizes = {} if args.sizes is None else dict(packet_sizes=tuple(args.sizes))
        tables = [(fig6_points(direction, **sizes, **common, **window), format_fig6,
                   (direction,)) for direction in directions]
    elif cmd == "fig7":
        tables = [(fig7_points(**common, **duration), format_fig7, ())]
    elif cmd == "fig8":
        tables = [(fig8_points(app, **common, **window), format_fig8, (app,))
                  for app in ("memcached", "apache")]
    elif cmd == "fig9":
        rates = {} if args.rates is None else dict(rates=tuple(args.rates))
        tables = [(fig9_points(**rates, **common, **duration), format_fig9, ())]
    elif cmd == "sriov":
        tables = [(sriov_points(**common, **window), format_sriov, ())]
    elif cmd == "ablation":
        tables = [(redirect_policy_ablation_points(**common), format_redirect_ablation, ())]
    elif cmd == "coalescing":
        tables = [(coalescing_points(**common, **window), format_coalescing, ())]
    elif cmd == "rack":
        tables = [(rack_points(configs=tuple(args.configs), shard_counts=tuple(args.shards),
                               application=args.application, **common, **window),
                   format_rack, ())]
    else:  # schedsweep
        from repro.experiments.schedzoo import REDIRECTION_MODES, SCHED_POLICIES

        policies = tuple(args.policies or SCHED_POLICIES)
        modes = tuple(args.redirection or (m for m, _ in REDIRECTION_MODES))
        adaptive = {"off": (False,), "on": (True,), "both": (False, True)}[args.adaptive]
        tables = [(sched_sweep_points(policies=policies, modes=modes, adaptive=adaptive,
                                      **common, **duration), format_sched_sweep, ())]

    graph = TaskGraph(task for i, (points, _, _) in enumerate(tables)
                      for task in sweep_tasks(str(i), points))
    with tempfile.TemporaryDirectory(prefix="repro-cli-") as state_root:
        result = FlowRunner(graph, state_root=state_root, jobs=args.jobs, echo=None).run()
    for error in result.failed.values():
        print(error, end="", file=sys.stderr)
    if result.failed:
        return 1
    for i, (_, formatter, format_args) in enumerate(tables):
        print(formatter(result.results[str(i)], *format_args))
    if cmd == "rack" and (args.trace or args.dashboard):
        _export_rack(args, tables[0][0], result.results["0"])
    return 0


def _export_rack(args, points, results) -> None:
    """Write the showcase cell's Perfetto trace (``--trace``) and
    dashboard (``--dashboard``)."""
    from repro.obs.rack import render_rack_dashboard
    from repro.obs.render import write_trace

    key = showcase_key(results)
    if args.trace:
        write_trace(rack_trace(next(p for p in points if p.key == key)), args.trace)
        print(f"rack perfetto trace ({key[0]}, {key[1]} shards) -> {args.trace}")
    if args.dashboard:
        Path(args.dashboard).write_text(render_rack_dashboard(results[key]),
                                        encoding="utf-8")
        print(f"rack dashboard ({key[0]}, {key[1]} shards) -> {args.dashboard}")


if __name__ == "__main__":
    sys.exit(main())
