"""The paper-reproduction DAG: every experiment, render and artifact as tasks.

This module is the single declaration of *what the full reproduction is*:

* ``calibrate`` — a cheap sanity run every sweep depends on; it fails fast
  (before hours of sweeping) if the simulator's basic readouts are off.
* every experiment, the rack grid included, as **point tasks plus a
  merge task** (:func:`sweep_tasks`) over its ``<x>_points(...)`` grid,
  with each module's ``FLOW_REDUCED`` overrides (short windows + trimmed
  grids — what CI runs end-to-end) in ``reduced`` mode;
* the **bench report** the same way: ``bench-points`` over
  :func:`~repro.obs.bench.bench_points` (the same runs in both modes),
  ``bench`` assembles the report, ``bench-compare`` gates it against the
  checked-in baseline and ``dashboard`` renders the points.  It is not a
  paper figure: no render task, no report section, no claims;
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
from typing import List, Sequence

from repro.experiments import ablations, coalescing, fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments import rack, schedzoo, sriov, table1
from repro.experiments.claims import failed_claims
from repro.flow.diff import BENCH_BASELINE
from repro.flow.graph import FlowError, Task, TaskGraph
from repro.obs.bench import bench_points, bench_report
from repro.parallel import SweepPoint
from repro.units import MS

__all__ = ["MODES", "build_graph", "sweep_tasks", "task_names"]

MODES = ("full", "reduced")

#: (task, label, points, formatter, format args, variant params, module)
#: — declaration order is flat-script order; the report joins in it.  The
#: variant params pick a figure's panel; every seed, window and grid
#: default is its ``<x>_points``' own.
_SWEEPS = (
    ("table1", "Table I", table1.table1_points, table1.format_table1, (), {}, table1),
    ("fig4-udp", "Fig 4a (UDP)", fig4.fig4_points, fig4.format_fig4, ("udp",),
     dict(protocol="udp"), fig4),
    ("fig4-udp-1024", "Fig 4a (UDP 1024B)", fig4.fig4_points, fig4.format_fig4, ("udp-1024",),
     dict(protocol="udp", payload_size=1024, quotas=(32, 16, 8)), fig4),
    ("fig4-tcp", "Fig 4b (TCP)", fig4.fig4_points, fig4.format_fig4, ("tcp",),
     dict(protocol="tcp"), fig4),
    ("fig5", "Fig 5", fig5.fig5_points, fig5.format_fig5, (), {}, fig5),
    ("fig6-send", "Fig 6a (send)", fig6.fig6_points, fig6.format_fig6, ("send",),
     dict(direction="send"), fig6),
    ("fig6-receive", "Fig 6b (receive)", fig6.fig6_points, fig6.format_fig6, ("receive",),
     dict(direction="receive"), fig6),
    ("fig7", "Fig 7", fig7.fig7_points, fig7.format_fig7, (), {}, fig7),
    ("fig8-memcached", "Fig 8a (memcached)", fig8.fig8_points, fig8.format_fig8, ("memcached",),
     dict(application="memcached"), fig8),
    ("fig8-apache", "Fig 8b (apache)", fig8.fig8_points, fig8.format_fig8, ("apache",),
     dict(application="apache"), fig8),
    ("fig9", "Fig 9", fig9.fig9_points, fig9.format_fig9, (), {}, fig9),
    ("sriov", "SR-IOV (Section VII)", sriov.sriov_points, sriov.format_sriov, (), {}, sriov),
    ("ablation", "Ablation: redirection policies",
     ablations.redirect_policy_ablation_points, ablations.format_redirect_ablation, (), {},
     ablations),
    ("coalescing", "Ablation: vIC coalescing vs ES2",
     coalescing.coalescing_points, coalescing.format_coalescing, (), {}, coalescing),
    ("schedsweep", "Scheduler policy zoo x redirection x adaptive allocation",
     schedzoo.sched_sweep_points, schedzoo.format_sched_sweep, (), {}, schedzoo),
    ("rack", "Rack: sharded multi-host fan-out", rack.rack_points, rack.format_rack, (), {},
     rack),
)


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
    """The machine-readable bench report, assembled from the
    ``bench-points`` results (:func:`repro.obs.bench.bench_report`)."""
    return bench_report(deps["bench-points"])


def bench_gate(bench):
    """``(table_lines, regressions)`` of a bench report against the
    checkout's :data:`~repro.flow.diff.BENCH_BASELINE`, or None outside a
    checkout (no baseline).

    :func:`repro.obs.bench_compare.compare` holds the threshold and the
    metric selection.
    """
    from repro.flow.diff import repo_root
    from repro.obs.bench_compare import compare, load_report

    root = repo_root()
    if root is None or not (root / BENCH_BASELINE).exists():
        return None
    return compare(load_report(str(root / BENCH_BASELINE)), bench)


def bench_compare_task(deps):
    """Gate the fresh ``bench`` report against the checked-in baseline.

    Any regression, watchdog violations included, raises so the flow
    exits nonzero.  Outside a checkout (no baseline file), the gate
    degrades to a recorded skip rather than a failure.  ``flow run``
    prints the gate's table whatever the outcome.
    """
    gate = bench_gate(deps["bench"])
    if gate is None:
        return {"ok": True, "skipped": "no checkout baseline to compare against",
                "lines": []}
    lines, regressions = gate
    if regressions:
        raise FlowError(
            "bench regression vs baseline: " + "; ".join(regressions)
        )
    return {"ok": True, "lines": lines, "regressions": []}


def dashboard_task(deps):
    """The self-contained HTML dashboard rendered from the bench points."""
    from repro.obs.dashboard import render_dashboard

    return render_dashboard(deps["bench-points"])


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

def _point_name(sweep: str, key) -> str:
    """``<sweep>:<key>``, a file name too (``results/<task>.pkl``): anything
    but ``[A-Za-z0-9+,.-]`` becomes ``_``; the graph rejects a collision."""
    label = ",".join(str(part) for part in (key if isinstance(key, tuple) else (key,)))
    return f"{sweep}:{re.sub(r'[^A-Za-z0-9+,.-]+', '_', label).strip('_')}"


def sweep_tasks(name: str, points: Sequence[SweepPoint],
                deps: Sequence[str] = ()) -> List[Task]:
    """One task per sweep point, each depending on ``deps``, plus the merge
    task named ``name``, which returns what ``run_sweep(points)`` returns."""
    tasks = [
        Task(name=_point_name(name, point.key), fn=point_task, deps=tuple(deps),
             kind="point", kwargs=dict(fn=point.fn, params=dict(point.kwargs)))
        for point in points
    ]
    tasks.append(Task(
        name=name, fn=merge_task, deps=tuple(task.name for task in tasks), kind="sweep",
        kwargs=dict(keys=tuple((task.name, point.key) for task, point in zip(tasks, points))),
    ))
    return tasks


def _params(variant, module, mode: str) -> dict:
    params = dict(variant)
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
        kwargs=dict(seed=1) if mode == "full" else dict(seed=1, warmup_ns=10 * MS,
                                                        measure_ns=30 * MS),
        description="sanity-check simulator readouts before sweeping",
    ))
    for task in sweep_tasks("bench-points", bench_points(), deps=("calibrate",)):
        graph.add(task)
    graph.add(Task(
        name="bench", fn=bench_task, deps=("bench-points",), kind="report",
        description="machine-readable bench report (the --bench-out payload)",
    ))
    graph.add(Task(
        name="bench-compare", fn=bench_compare_task, deps=("bench",), kind="render",
        description=f"regression gate vs checked-in {BENCH_BASELINE}",
    ))
    graph.add(Task(
        name="dashboard", fn=dashboard_task, deps=("bench-points",), kind="render",
        description="self-contained HTML dashboard from the bench points",
    ))
    for name, _, points, _, _, variant, module in _SWEEPS:
        for task in sweep_tasks(name, points(**_params(variant, module, mode)),
                                deps=("calibrate",)):
            graph.add(task)
    sections = []
    for name, label, _, formatter, format_args, _, _ in _SWEEPS:
        render_name = f"render-{name}"
        graph.add(Task(
            name=render_name, fn=render_task, deps=(name,), kind="render",
            kwargs=dict(source=name, formatter=formatter, mode=mode, format_args=format_args),
            description=f"{label} table",
        ))
        sections.append((label, render_name))
    graph.add(Task(
        name="report", fn=report_task,
        deps=tuple(render for _, render in sections), kind="report",
        kwargs=dict(sections=tuple(sections)),
        description="EXPERIMENTS.md source text (all renders, flat-script order)",
    ))
    graph.validate()
    return graph


def task_names(mode: str = "full") -> list:
    """Declaration-order task names (the ``flow list`` payload)."""
    return [task.name for task in build_graph(mode).tasks]
