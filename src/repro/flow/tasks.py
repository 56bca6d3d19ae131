"""The paper-reproduction DAG: every experiment, render and artifact as tasks.

This module is the single declaration of *what the full reproduction is*:

* ``calibrate`` — a cheap sanity run every sweep depends on; it fails fast
  (before hours of sweeping) if the simulator's basic readouts are off.
* the **bench report** (``bench``; ``bench-compare`` gates it against
  the checked-in baseline, ``dashboard`` renders it) and the **rack**
  grid (:func:`experiment_task` says why it stays whole), declared right
  after ``calibrate``: the runner submits ready tasks in declaration
  order, and these are the longest;
* every other experiment as **point tasks plus a merge task**
  (:func:`sweep_tasks`) over its ``<x>_points(...)`` grid, with each
  module's ``FLOW_REDUCED`` overrides (short windows + trimmed grids —
  what CI runs end-to-end) in ``reduced`` mode;
* one **render task per sweep**: it checks the sweep's paper claims
  (:mod:`repro.experiments.claims`), then renders the paper-style table;
* ``report`` — the concatenation of every render in flat-script order:
  the EXPERIMENTS.md source text.

Every task callable lives at module level and takes ``(deps, **kwargs)``
so it can cross process boundaries.  ``python -m repro <experiment>``
builds its tasks with the same :func:`sweep_tasks`.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence

from repro.experiments import ablations, coalescing, fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments import rack, schedzoo, sriov, table1
from repro.experiments.claims import failed_claims
from repro.flow.graph import FlowError, Task, TaskGraph
from repro.parallel import SweepPoint
from repro.units import MS, SEC

__all__ = ["MODES", "build_graph", "sweep_tasks", "task_names"]

MODES = ("full", "reduced")

#: Full-mode windows (the paper-reproduction defaults).
_WARMUP = 200 * MS
_MEASURE = 500 * MS

#: (task, label, points, formatter, format args, full-mode params, module)
#: — declaration order is flat-script order; the report joins in it.
_SWEEPS = (
    ("table1", "Table I", table1.table1_points, table1.format_table1, (),
     dict(seed=1, warmup_ns=_WARMUP, measure_ns=_MEASURE), table1),
    ("fig4-udp", "Fig 4a (UDP)", fig4.fig4_points, fig4.format_fig4, ("udp",),
     dict(protocol="udp", seed=1, warmup_ns=_WARMUP, measure_ns=_MEASURE), fig4),
    ("fig4-udp-1024", "Fig 4a (UDP 1024B)", fig4.fig4_points, fig4.format_fig4, ("udp-1024",),
     dict(protocol="udp", payload_size=1024, quotas=(32, 16, 8), seed=1,
          warmup_ns=_WARMUP, measure_ns=_MEASURE), fig4),
    ("fig4-tcp", "Fig 4b (TCP)", fig4.fig4_points, fig4.format_fig4, ("tcp",),
     dict(protocol="tcp", seed=1, warmup_ns=_WARMUP, measure_ns=_MEASURE), fig4),
    ("fig5", "Fig 5", fig5.fig5_points, fig5.format_fig5, (),
     dict(seed=1, warmup_ns=_WARMUP, measure_ns=_MEASURE), fig5),
    ("fig6-send", "Fig 6a (send)", fig6.fig6_points, fig6.format_fig6, ("send",),
     dict(direction="send", seed=3, warmup_ns=300 * MS, measure_ns=600 * MS), fig6),
    ("fig6-receive", "Fig 6b (receive)", fig6.fig6_points, fig6.format_fig6, ("receive",),
     dict(direction="receive", seed=3, warmup_ns=300 * MS, measure_ns=600 * MS), fig6),
    ("fig7", "Fig 7", fig7.fig7_points, fig7.format_fig7, (),
     dict(seed=3, duration_ns=int(1.5 * SEC)), fig7),
    ("fig8-memcached", "Fig 8a (memcached)", fig8.fig8_points, fig8.format_fig8, ("memcached",),
     dict(application="memcached", seed=3, warmup_ns=300 * MS, measure_ns=600 * MS), fig8),
    ("fig8-apache", "Fig 8b (apache)", fig8.fig8_points, fig8.format_fig8, ("apache",),
     dict(application="apache", seed=3, warmup_ns=300 * MS, measure_ns=600 * MS), fig8),
    ("fig9", "Fig 9", fig9.fig9_points, fig9.format_fig9, (),
     dict(seed=3, duration_ns=2 * SEC, configs=("Baseline", "PI", "PI+H", "PI+H+R")), fig9),
    ("sriov", "SR-IOV (Section VII)", sriov.sriov_points, sriov.format_sriov, (),
     dict(seed=3, warmup_ns=300 * MS, measure_ns=600 * MS), sriov),
    ("ablation", "Ablation: redirection policies",
     ablations.redirect_policy_ablation_points, ablations.format_redirect_ablation, (),
     dict(seed=3, duration_ns=int(1.5 * SEC)), ablations),
    ("coalescing", "Ablation: vIC coalescing vs ES2",
     coalescing.coalescing_points, coalescing.format_coalescing, (),
     dict(seed=5, warmup_ns=_WARMUP, measure_ns=_MEASURE), coalescing),
    ("schedsweep", "Scheduler policy zoo x redirection x adaptive allocation",
     schedzoo.sched_sweep_points, schedzoo.format_sched_sweep, (),
     dict(seed=3, duration_ns=int(0.8 * SEC)), schedzoo),
)

#: The rack grid, in the same shape; it runs as one task and renders last.
_RACK = ("rack", "Rack: sharded multi-host fan-out", rack.run_rack, rack.format_rack, (),
         # telemetry=True: rack observability (stitched spans, barrier
         # profile) rides along; observer-only, the digest check still holds.
         dict(seed=3, warmup_ns=2 * MS, measure_ns=20 * MS, telemetry=True), rack)


# -- task callables (module-level: they run in worker processes) ----------


def calibrate_task(deps, seed=1, warmup_ns=20 * MS, measure_ns=60 * MS):
    """Fail fast if the simulator's basic readouts are off.

    Runs one Baseline and one PI+H+R single-vCPU netperf window and
    checks the invariants every experiment implicitly relies on: traffic
    flows, TIG is a fraction, PI removes the interrupt-exit rows.
    """
    from repro.core.configs import paper_config
    from repro.experiments.runner import measure_window
    from repro.experiments.testbed import single_vcpu_testbed
    from repro.workloads.netperf import NetperfUdpSend

    readout = {}
    for config in ("Baseline", "PI+H+R"):
        feats = paper_config(config) if config == "Baseline" else paper_config(config, quota=8)
        tb = single_vcpu_testbed(feats, seed=seed)
        wl = NetperfUdpSend(tb, tb.tested, n_streams=1, payload_size=256)
        run = measure_window(tb, wl, warmup_ns, measure_ns, config_name=config)
        if run.throughput_gbps <= 0:
            raise FlowError(f"calibration: no traffic under {config}")
        if not 0.0 < run.tig <= 1.0:
            raise FlowError(f"calibration: TIG {run.tig} out of range under {config}")
        readout[config] = {
            "throughput_gbps": run.throughput_gbps,
            "tig": run.tig,
            "total_exits_per_sec": run.total_exit_rate,
            "interrupt_delivery_per_sec": run.exit_rates.interrupt_delivery,
        }
    if readout["PI+H+R"]["interrupt_delivery_per_sec"] >= \
            readout["Baseline"]["interrupt_delivery_per_sec"]:
        raise FlowError("calibration: posted interrupts did not reduce delivery exits")
    return readout


def experiment_task(deps, runner, params):
    """One experiment grid run whole; ``calibrate`` gates it through ``deps``.

    Only ``rack`` runs this way: its cells are multi-process runs whose
    telemetry-laden results (8.3 MB reduced) point tasks would pickle and
    digest twice, per cell and again in the merge (DESIGN.md §15).
    """
    return runner(**params)


def point_task(deps, fn, params):
    """One sweep point, ``fn(**params)``; its sweep's merge task collects it."""
    return fn(**params)


def merge_task(deps, keys):
    """``{key: point result}`` in declaration order — the mapping
    :func:`~repro.parallel.run_sweep` returns for the same points."""
    return {key: deps[name] for name, key in keys}


def _check_claims(source, results, mode):
    """Raise naming every paper claim ``source``'s results break."""
    failed = failed_claims(source, results, mode)
    if failed:
        raise FlowError(f"{source}: paper claim failed: " + "; ".join(failed))


def render_task(deps, source, formatter, mode, format_args=()):
    """Check one sweep's paper claims, then render it as the paper-style table."""
    _check_claims(source, deps[source], mode)
    return formatter(deps[source], *format_args)


def bench_task(deps):
    """The machine-readable bench report (schema-versioned dict)."""
    from repro.obs.bench import run_bench

    return run_bench()


def bench_gate(bench, baseline="BENCH_baseline.json"):
    """``(table_lines, regressions)`` of a bench report against the
    checkout's baseline file, or None outside a checkout (no baseline).

    :func:`repro.obs.bench_compare.compare` holds the threshold and the
    metric selection.
    """
    from repro.flow.diff import repo_root
    from repro.obs.bench_compare import compare, load_report

    root = repo_root()
    if root is None or not (root / baseline).exists():
        return None
    return compare(load_report(str(root / baseline)), bench)


def bench_compare_task(deps, source="bench", baseline="BENCH_baseline.json"):
    """Gate the fresh bench report against the checked-in baseline.

    Any regression, watchdog violations included, raises so the flow
    exits nonzero.  Outside a checkout (no baseline file), the gate
    degrades to a recorded skip rather than a failure.  ``flow run``
    prints the gate's table whatever the outcome.
    """
    gate = bench_gate(deps[source], baseline)
    if gate is None:
        return {"ok": True, "skipped": "no checkout baseline to compare against",
                "lines": []}
    lines, regressions = gate
    if regressions:
        raise FlowError(
            "bench regression vs baseline: " + "; ".join(regressions)
        )
    return {"ok": True, "lines": lines, "regressions": []}


def dashboard_task(deps, source="bench"):
    """The self-contained HTML dashboard rendered from the bench report."""
    from repro.obs.dashboard import render_dashboard

    return render_dashboard(deps[source])


def report_task(deps, sections):
    """Concatenate the rendered sections in flat-script order.

    This text is the EXPERIMENTS.md source — what the flat runner used to
    print stage by stage.
    """
    parts = []
    for label, name in sections:
        parts.append(f"===== {label} =====\n{deps[name]}")
    return "\n\n".join(parts) + "\n"


# -- graph construction ---------------------------------------------------

#: Per-kind wall budgets in seconds, by mode.  Warn-only: the runner
#: reports overruns in the summary / flow report / dashboard but never
#: fails the run, and budgets never reach cache keys, so tuning them
#: cannot invalidate cached work.  Values are deliberately generous — they
#: exist to flag a task whose cost *regressed*, not to race healthy runs.
_BUDGETS = {
    "full": {"calibrate": 120.0, "point": 3600.0, "sweep": 3600.0, "render": 60.0,
             "bench": 900.0, "report": 60.0},
    "reduced": {"calibrate": 60.0, "point": 600.0, "sweep": 600.0, "render": 30.0,
                "bench": 300.0, "report": 30.0},
}


def _budget(mode: Optional[str], kind: str) -> Optional[float]:
    return _BUDGETS.get(mode, {}).get(kind)


def _point_name(sweep: str, key) -> str:
    """``<sweep>:<key>``, a file name too (``results/<task>.pkl``): anything
    but ``[A-Za-z0-9+,.-]`` becomes ``_``; the graph rejects a collision."""
    label = ",".join(str(part) for part in (key if isinstance(key, tuple) else (key,)))
    return f"{sweep}:{re.sub(r'[^A-Za-z0-9+,.-]+', '_', label).strip('_')}"


def sweep_tasks(name: str, points: Sequence[SweepPoint], deps: Sequence[str] = (),
                mode: Optional[str] = None) -> List[Task]:
    """One task per sweep point, each depending on ``deps``, plus the merge
    task named ``name``, which returns what ``run_sweep(points)`` returns.
    ``mode`` picks the wall budgets (none without a mode)."""
    tasks = [
        Task(name=_point_name(name, point.key), fn=point_task, deps=tuple(deps),
             kind="point", budget_s=_budget(mode, "point"),
             kwargs=dict(fn=point.fn, params=dict(point.kwargs)))
        for point in points
    ]
    tasks.append(Task(
        name=name, fn=merge_task, deps=tuple(task.name for task in tasks), kind="sweep",
        budget_s=_budget(mode, "sweep"),
        kwargs=dict(keys=tuple((task.name, point.key) for task, point in zip(tasks, points))),
    ))
    return tasks


def _params(full_params, module, mode: str) -> dict:
    params = dict(full_params)
    if mode == "reduced":
        params.update(module.FLOW_REDUCED)
    return params


def build_graph(mode: str = "full") -> TaskGraph:
    """The reproduction DAG for one mode."""
    if mode not in MODES:
        raise FlowError(f"unknown flow mode {mode!r} (expected one of {MODES})")
    graph = TaskGraph()
    graph.add(Task(
        name="calibrate", fn=calibrate_task, kind="calibrate",
        budget_s=_budget(mode, "calibrate"),
        kwargs=dict(seed=1) if mode == "full" else dict(seed=1, warmup_ns=10 * MS,
                                                        measure_ns=30 * MS),
        description="sanity-check simulator readouts before sweeping",
    ))
    graph.add(Task(
        name="bench", fn=bench_task, deps=("calibrate",), kind="bench",
        budget_s=_budget(mode, "bench"),
        description="machine-readable bench report (the --bench-out payload)",
    ))
    graph.add(Task(
        name="bench-compare", fn=bench_compare_task, deps=("bench",), kind="bench",
        budget_s=_budget(mode, "bench"),
        description="regression gate vs checked-in BENCH_baseline.json",
    ))
    graph.add(Task(
        name="dashboard", fn=dashboard_task, deps=("bench",), kind="render",
        budget_s=_budget(mode, "render"),
        description="self-contained HTML dashboard from the bench report",
    ))
    name, label, runner, _, _, full_params, module = _RACK
    graph.add(Task(
        name=name, fn=experiment_task, deps=("calibrate",), kind="sweep",
        budget_s=_budget(mode, "sweep"),
        kwargs=dict(runner=runner, params=_params(full_params, module, mode)),
        description=f"{label} grid",
    ))
    for name, _, points, _, _, full_params, module in _SWEEPS:
        for task in sweep_tasks(name, points(**_params(full_params, module, mode)),
                                deps=("calibrate",), mode=mode):
            graph.add(task)
    sections = []
    for name, label, _, formatter, format_args, _, _ in _SWEEPS + (_RACK,):
        render_name = f"render-{name}"
        graph.add(Task(
            name=render_name, fn=render_task, deps=(name,), kind="render",
            budget_s=_budget(mode, "render"),
            kwargs=dict(source=name, formatter=formatter, mode=mode, format_args=format_args),
            description=f"{label} table",
        ))
        sections.append((label, render_name))
    graph.add(Task(
        name="report", fn=report_task,
        deps=tuple(render for _, render in sections), kind="report",
        budget_s=_budget(mode, "report"),
        kwargs=dict(sections=tuple(sections)),
        description="EXPERIMENTS.md source text (all renders, flat-script order)",
    ))
    graph.validate()
    return graph


def task_names(mode: str = "full") -> list:
    """Declaration-order task names (the ``flow list`` payload)."""
    return [task.name for task in build_graph(mode).tasks]
