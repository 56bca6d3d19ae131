"""``python -m repro flow`` — run the experiment DAG from the shell.

Subcommands::

    repro flow run [--mode full|reduced] [--only TASK ...] [--resume]
                   [--force] [--dry-run] [--jobs N] [--state-dir DIR]
                   [--assert-cached] [--print-report] [--report-out F]
                   [--bench-out F] [--dashboard-out F]
    repro flow list [--mode ...]       # print the DAG (topological order)
    repro flow status [--state-dir] [--json]
    repro flow report [--state-dir] [--json] [--out FILE]
    repro flow dashboard [--state-dir] [--output FILE]
    repro flow diff A B [--json] [--assert-no-changes]

Resume is the default: a re-invocation with unchanged code and
configuration lands in the same run directory and only re-runs tasks
whose inputs changed (``--resume`` exists to state that intent
explicitly; ``--force`` recomputes everything: the per-task results are
the only result cache, so no sweep point is served from disk).
``--assert-cached`` makes a run fail unless *every* selected task
resolved from cache — the CI proof that resume/incremental-re-run
actually works.

The observability trio reads ``flow-state.json`` (live dir or archived
artifact): ``report`` prints the critical-path/resource analysis
(:mod:`repro.obs.flowreport`), ``dashboard`` writes the self-contained
Gantt HTML (:mod:`repro.obs.flowdash`), and ``diff`` compares two runs
(:mod:`repro.flow.diff`) — ``--assert-no-changes`` turns a clean replay
into a CI gate (zero recomputed tasks, zero digest changes).

Exit codes: 0 success, 1 task failure (the rest of the DAG still ran and
the summary names every failed stage), 2 invalid graph/selection
(unknown task, bad mode) or another ``flow run`` holding the run
directory, 3 ``--assert-cached`` violated, 4
``flow diff --assert-no-changes`` violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.flow.graph import FlowError
from repro.flow.runner import FlowRunner
from repro.flow.state import FlowState, flow_root
from repro.flow.tasks import MODES, build_graph

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro flow",
        description="DAG-driven experiment orchestration with resumable state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the DAG (resumes by default)")
    run.add_argument("--mode", choices=MODES, default="full",
                     help="full = flat-script parameters; reduced = short "
                          "windows + trimmed grids (what CI runs)")
    run.add_argument("--only", nargs="+", default=None, metavar="TASK",
                     help="run only these tasks plus their transitive dependencies")
    run.add_argument("--resume", action="store_true",
                     help="resume from persisted state (this is the default; "
                          "the flag documents intent)")
    run.add_argument("--force", action="store_true",
                     help="ignore persisted state and recompute every task")
    run.add_argument("--dry-run", action="store_true",
                     help="print what would run vs resolve from cache, then exit")
    run.add_argument("--jobs", type=int, default=0,
                     help="worker processes for the ready tasks, sweep points "
                          "included (0 = all CPUs, 1 = serial)")
    run.add_argument("--state-dir", default=None,
                     help="flow state root (default: $REPRO_FLOW_DIR or "
                          "~/.cache/repro-es2/flow)")
    run.add_argument("--assert-cached", action="store_true",
                     help="exit 3 unless every selected task resolved from cache")
    run.add_argument("--print-report", action="store_true",
                     help="print the aggregated experiment report after the run")
    run.add_argument("--report-out", default=None, metavar="FILE",
                     help="write the aggregated report text to FILE")
    run.add_argument("--bench-out", default=None, metavar="FILE",
                     help="write the bench report JSON to FILE")
    run.add_argument("--dashboard-out", default=None, metavar="FILE",
                     help="write the dashboard HTML to FILE")

    lst = sub.add_parser("list", help="print the DAG in topological order")
    lst.add_argument("--mode", choices=MODES, default="full")

    status = sub.add_parser("status", help="summarize the latest flow-state.json")
    status.add_argument("--state-dir", default=None)
    status.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full state document (per-task status, "
                             "keys, walls, resource accounting) as JSON")

    report = sub.add_parser(
        "report", help="critical-path / resource analysis of a flow run"
    )
    report.add_argument("--state-dir", default=None,
                        help="state file, run directory, or state root "
                             "(default: the configured flow root)")
    report.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the analysis as JSON instead of text")
    report.add_argument("--out", default=None, metavar="FILE",
                        help="also write the output to FILE")

    dash = sub.add_parser(
        "dashboard", help="write the self-contained Gantt dashboard HTML"
    )
    dash.add_argument("--state-dir", default=None,
                      help="state file, run directory, or state root")
    dash.add_argument("--output", default="flow-gantt.html", metavar="FILE")

    diff = sub.add_parser(
        "diff", help="compare two flow runs (recomputed set, digests, walls, bench)"
    )
    diff.add_argument("run_a", metavar="A",
                      help="baseline: state file, run directory, or state root")
    diff.add_argument("run_b", metavar="B", help="candidate: same forms as A")
    diff.add_argument("--json", action="store_true", dest="as_json")
    diff.add_argument("--assert-no-changes", action="store_true",
                      help="exit 4 unless B recomputed nothing and every "
                           "output digest matches A")
    return parser


def _cmd_list(args) -> int:
    graph = build_graph(args.mode)
    order = graph.topological_order()
    width = max(len(name) for name in order)
    for name in order:
        task = graph[name]
        deps = f" <- {', '.join(task.deps)}" if task.deps else ""
        print(f"{name:<{width}}  [{task.kind}] {task.description}{deps}")
    return 0


def _cmd_status(args) -> int:
    root = args.state_dir if args.state_dir is not None else flow_root()
    path = os.path.join(str(root), "flow-state.json")
    state = FlowState.load(path)
    if state is None:
        print(f"no flow state at {path}")
        return 1
    if args.as_json:
        print(json.dumps(state.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"run {state.run_key} (mode={state.mode}, code={state.code_version})")
    print(json.dumps(state.last_run, indent=2, sort_keys=True))
    width = max((len(n) for n in state.tasks), default=4)
    for name, rec in state.tasks.items():
        note = "cached" if rec.cached else (f"{rec.wall_s:.1f}s" if rec.wall_s else "")
        error = f"  {rec.error.strip().splitlines()[-1]}" if rec.error else ""
        print(f"  {name:<{width}} {rec.status:<8} {note}{error}")
    return 0


def _load_state_doc(state_dir):
    """The raw state document for report/dashboard (default: flow root)."""
    from repro.flow.diff import resolve_state_path

    spec = state_dir if state_dir is not None else str(flow_root())
    path = resolve_state_path(spec)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_report(args) -> int:
    from repro.obs.flowreport import flow_report, format_flow_report

    report = flow_report(_load_state_doc(args.state_dir))
    text = (json.dumps(report, indent=2, sort_keys=True) + "\n"
            if args.as_json else format_flow_report(report))
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_dashboard(args) -> int:
    from repro.obs.flowdash import render_flow_dashboard

    Path(args.output).write_text(render_flow_dashboard(_load_state_doc(args.state_dir)),
                                 encoding="utf-8")
    print(f"flow dashboard: {args.output}")
    return 0


def _cmd_diff(args) -> int:
    from repro.flow.diff import flow_diff, format_flow_diff

    diff = flow_diff(args.run_a, args.run_b)
    if args.as_json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(format_flow_diff(diff), end="")
    if args.assert_no_changes and not diff["clean"]:
        print(
            "assert-no-changes FAILED: "
            f"{len(diff['recomputed_in_b'])} task(s) recomputed, "
            f"{len(diff['digest_changed'])} output digest(s) changed",
            file=sys.stderr,
        )
        return 4
    return 0


def _cmd_run(args) -> int:
    runner = FlowRunner(build_graph(args.mode), mode=args.mode,
                        state_root=args.state_dir, jobs=args.jobs)

    if args.dry_run:
        plan = runner.plan(only=args.only, force=args.force)
        for entry in plan:
            print(f"{entry['action']:<7} {entry['task']:<22} [{entry['kind']}]")
        runnable = sum(1 for e in plan if e["action"] == "run")
        print(f"dry run: {runnable} to run, {len(plan) - runnable} cached "
              f"(state: {runner.run_dir.state_path})")
        return 0

    result = runner.run(only=args.only, force=args.force)
    for line in result.summary_lines():
        print(line)
    print(f"state: {result.state_path}")

    def task_result(name):
        if name in result.results:
            return result.results[name]
        ok, value = runner.load_result(name)
        return value if ok else None

    if args.print_report or args.report_out:
        report = task_result("report")
        if report is not None:
            if args.print_report:
                print(report, end="")
            if args.report_out:
                with open(args.report_out, "w", encoding="utf-8") as fh:
                    fh.write(report)
    if args.bench_out:
        bench = task_result("bench")
        if bench is not None:
            with open(args.bench_out, "w", encoding="utf-8") as fh:
                json.dump(bench, fh, indent=2, sort_keys=True, allow_nan=False)
                fh.write("\n")
    if args.dashboard_out:
        dashboard = task_result("dashboard")
        if dashboard is not None:
            Path(args.dashboard_out).write_text(dashboard, encoding="utf-8")

    if args.assert_cached and result.executed:
        print(f"assert-cached FAILED: {len(result.executed)} task(s) recomputed: "
              f"{', '.join(result.executed)}", file=sys.stderr)
        return 3
    return 0 if result.ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "dashboard":
            return _cmd_dashboard(args)
        if args.command == "diff":
            return _cmd_diff(args)
        return _cmd_run(args)
    except FlowError as exc:
        print(f"flow error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
