"""``python -m repro trace`` — record and read one event-path trace.

Runs one experiment (ping echoes or an inbound UDP stream) on the
multiplexed or single-vCPU testbed with per-request span recording
enabled, prints the stage-by-stage latency attribution report
(:mod:`repro.obs.pathreport`) and optionally writes the Chrome/Perfetto
``trace_event`` JSON (load it in ``ui.perfetto.dev``) and the span-tree
JSONL (:mod:`repro.obs.export`).

Like :mod:`repro.obs.bench`, this module imports the experiment layer and
is therefore not imported from ``repro.obs.__init__``.
"""

from __future__ import annotations

import sys
from typing import Any, Dict

from repro.core.configs import paper_config
from repro.experiments.testbed import multiplexed_testbed, single_vcpu_testbed
from repro.obs.export import export_spans_jsonl, perfetto_trace
from repro.obs.pathreport import build_path_report, format_path_report
from repro.obs.render import write_trace
from repro.obs.spans import collect_traces
from repro.units import MS

__all__ = ["run_trace", "main"]

#: Experiment name -> builder kwargs defaults.
EXPERIMENTS = ("ping", "udp")


def run_trace(
    experiment: str,
    config: str = "PI+H+R",
    seed: int = 3,
    duration_ns: int = 250 * MS,
    sample_every: int = 1,
    capacity: int = 262144,
    single_vcpu: bool = False,
) -> Dict[str, Any]:
    """Run one spans-enabled experiment; returns traces, bus and report."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown trace experiment {experiment!r} (choose from {EXPERIMENTS})")
    features = paper_config(config, quota=4)
    if single_vcpu:
        tb = single_vcpu_testbed(features, seed=seed)
    else:
        tb = multiplexed_testbed(features, seed=seed)
    tb.sim.enable_spans(sample_every=sample_every, capacity=capacity)

    if experiment == "ping":
        from repro.workloads.ping import PingWorkload

        wl = PingWorkload(tb, tb.tested, interval_ns=2 * MS)
        wl.start()
    else:
        from repro.net.udp import ExternalUdpSource, GuestUdpRxFlow, UdpRecvTask

        flow_id = f"{tb.tested.name}/udp-rx"
        rx = GuestUdpRxFlow(tb.tested.netstack, flow_id)
        task = UdpRecvTask(f"{tb.tested.name}-netserver", rx)
        tb.tested.guest_os.add_task(task, vcpu_index=0)
        src = ExternalUdpSource(
            tb.external, flow_id, guest_addr=tb.tested.name,
            payload_size=1024, rate_pps=20_000.0,
        )
        src.start()
    tb.run_for(duration_ns)

    traces = list(collect_traces(tb.sim.trace).values())
    report = build_path_report(traces)
    return {
        "testbed": tb,
        "bus": tb.sim.trace,
        "traces": traces,
        "report": report,
        "title": f"Event-path attribution — {experiment} / {features.name} (seed {seed})",
    }


def main(argv=None) -> int:
    """Entry point for ``python -m repro trace``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Record per-request event-path spans and print the stage attribution",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="ping: external echoes (full RX+TX path); "
                             "udp: inbound stream (RX path)")
    parser.add_argument("--config", default="PI+H+R",
                        help="paper configuration (Baseline, PI, PI+H, PI+H+R; default PI+H+R)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--duration-ms", type=int, default=250)
    parser.add_argument("--sample-every", type=int, default=1,
                        help="trace 1 out of every N requests (deterministic)")
    parser.add_argument("--capacity", type=int, default=262144,
                        help="trace-bus ring capacity (marks retained)")
    parser.add_argument("--single-vcpu", action="store_true",
                        help="use the dedicated-core testbed instead of the multiplexed one")
    parser.add_argument("--perfetto", default=None, metavar="PATH",
                        help="write Chrome/Perfetto trace_event JSON here")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="write one span tree per line here")
    args = parser.parse_args(argv)

    result = run_trace(
        args.experiment,
        config=args.config,
        seed=args.seed,
        duration_ns=args.duration_ms * MS,
        sample_every=args.sample_every,
        capacity=args.capacity,
        single_vcpu=args.single_vcpu,
    )
    print(format_path_report(result["report"], title=result["title"]))
    if args.perfetto:
        doc = perfetto_trace(result["traces"], bus=result["bus"])
        write_trace(doc, args.perfetto)
        print(f"wrote {args.perfetto} ({len(doc['traceEvents'])} trace events; "
              "load it in ui.perfetto.dev)")
    if args.jsonl:
        n = export_spans_jsonl(result["traces"], args.jsonl)
        print(f"wrote {args.jsonl} ({n} span trees)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
