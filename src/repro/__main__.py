"""Command-line entry point: run paper experiments from the shell.

Examples::

    python -m repro table1
    python -m repro fig4 --protocol tcp
    python -m repro fig6 --direction receive --sizes 512 1448
    python -m repro fig7
    python -m repro fig9 --rates 800 1800 2600
    python -m repro sriov

Options left out fall back to the experiment's own ``run_*`` defaults,
which are the ``flow run`` full-mode parameters.  The whole reproduction,
cached and resumable, is ``python -m repro flow run --print-report``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.ablations import format_redirect_ablation, run_redirect_policy_ablation
from repro.experiments.coalescing import format_coalescing, run_coalescing
from repro.experiments.fig4 import format_fig4, run_fig4
from repro.experiments.fig5 import format_fig5, run_fig5
from repro.experiments.fig6 import format_fig6, run_fig6
from repro.experiments.fig7 import format_fig7, run_fig7
from repro.experiments.fig8 import format_fig8, run_fig8
from repro.experiments.fig9 import find_knee, format_fig9, run_fig9
from repro.experiments.rack import (
    DEFAULT_RACK_CONFIGS,
    DEFAULT_SHARD_COUNTS,
    format_rack,
    run_rack,
    showcase_key,
)
from repro.experiments.schedzoo import format_sched_sweep, run_sched_sweep
from repro.experiments.sriov import format_sriov, run_sriov
from repro.experiments.table1 import format_table1, run_table1
from repro.units import MS


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="simulation seed")
    p.add_argument("--warmup-ms", type=int, default=None,
                   help="warm-up window (default: the experiment's own)")
    p.add_argument("--measure-ms", type=int, default=None,
                   help="measurement window (default: the experiment's own)")
    p.add_argument(
        "--sched-policy",
        choices=("cfs", "rr", "mlfq", "deadline"),
        default=None,
        help="host scheduler policy for every testbed (sets REPRO_SCHED_POLICY)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes for sweeps (0 = all CPUs, 1 = serial)",
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
                   help="enable rack telemetry and write the merged "
                        "(per-shard track groups + stitched paths) "
                        "Perfetto JSON here")
    p.add_argument("--dashboard", metavar="PATH", default=None,
                   help="enable rack telemetry and write the rack "
                        "observability dashboard HTML here")

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

    # `repro bench` has its own (short) windows and output options; it
    # delegates to repro.obs.bench so the schema lives in one place.
    p = sub.add_parser(
        "bench",
        help="run the smoke sweep and emit a schema-versioned BENCH_<rev>.json",
        add_help=False,
    )

    # `repro trace` likewise owns its arguments (repro.obs.tracecli).
    p = sub.add_parser(
        "trace",
        help="record per-request event-path spans; print the stage attribution report",
        add_help=False,
    )

    # `repro dashboard` likewise owns its arguments (repro.obs.dashcli).
    p = sub.add_parser(
        "dashboard",
        help="render the windowed-telemetry bench dashboard as one self-contained HTML file",
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
    if argv and argv[0] == "bench":
        # The bench pipeline owns its full argument set (including --help).
        from repro.obs.bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.obs.tracecli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "dashboard":
        from repro.obs.dashcli import main as dashboard_main

        return dashboard_main(argv[1:])
    if argv and argv[0] == "flow":
        from repro.flow.cli import main as flow_main

        return flow_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.sched_policy is not None:
        import os

        # Environment, not a parameter: sweep workers inherit it, and
        # default-SchedParams testbeds resolve it uniformly.
        os.environ["REPRO_SCHED_POLICY"] = args.sched_policy

    # Only the options the user gave reach a runner; the rest fall back to
    # the run_* signature, the one home of every default.
    common = dict(jobs=args.jobs)
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
    if cmd == "table1":
        print(format_table1(run_table1(**common, **window)))
    elif cmd == "fig4":
        protos = ("udp", "tcp") if args.protocol == "both" else (args.protocol,)
        for proto in protos:
            print(format_fig4(run_fig4(proto, **common, **window), proto))
    elif cmd == "fig5":
        print(format_fig5(run_fig5(**common, **window)))
    elif cmd == "fig6":
        directions = ("send", "receive") if args.direction == "both" else (args.direction,)
        sizes = {} if args.sizes is None else dict(packet_sizes=tuple(args.sizes))
        for direction in directions:
            print(format_fig6(run_fig6(direction, **sizes, **common, **window), direction))
    elif cmd == "fig7":
        print(format_fig7(run_fig7(**common, **duration)))
    elif cmd == "fig8":
        for app in ("memcached", "apache"):
            print(format_fig8(run_fig8(app, **common, **window), app))
    elif cmd == "fig9":
        rates = {} if args.rates is None else dict(rates=tuple(args.rates))
        results = run_fig9(**rates, **common, **duration)
        print(format_fig9(results))
        for cfg in sorted({c for (c, _) in results}):
            print(f"knee[{cfg}] = {find_knee(results, cfg)}/s")
    elif cmd == "sriov":
        print(format_sriov(run_sriov(**common, **window)))
    elif cmd == "ablation":
        print(format_redirect_ablation(run_redirect_policy_ablation(**common)))
    elif cmd == "coalescing":
        print(format_coalescing(run_coalescing(**common, **window)))
    elif cmd == "rack":
        telemetry = None
        if args.trace or args.dashboard:
            from repro.cluster import RackTelemetry

            telemetry = RackTelemetry()
        rack_results = run_rack(
            configs=tuple(args.configs), shard_counts=tuple(args.shards),
            application=args.application, telemetry=telemetry,
            **common, **window)
        print(format_rack(rack_results))
        if telemetry is not None:
            from repro.obs.rack import rack_perfetto_trace, render_rack_dashboard
            from repro.obs.render import write_trace

            key = showcase_key(rack_results)
            report = rack_results[key]
            if args.trace:
                write_trace(rack_perfetto_trace(report), args.trace)
                print(f"rack perfetto trace ({key[0]}, {key[1]} shards) "
                      f"-> {args.trace}")
            if args.dashboard:
                Path(args.dashboard).write_text(render_rack_dashboard(report),
                                                encoding="utf-8")
                print(f"rack dashboard ({key[0]}, {key[1]} shards) "
                      f"-> {args.dashboard}")
    elif cmd == "schedsweep":
        from repro.experiments.schedzoo import REDIRECTION_MODES, SCHED_POLICIES

        policies = tuple(args.policies or SCHED_POLICIES)
        modes = tuple(args.redirection or (m for m, _ in REDIRECTION_MODES))
        adaptive = {"off": (False,), "on": (True,), "both": (False, True)}[args.adaptive]
        print(format_sched_sweep(run_sched_sweep(
            policies=policies, modes=modes, adaptive=adaptive, **common, **duration)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
