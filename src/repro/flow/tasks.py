"""The paper-reproduction DAG: every experiment, render and artifact as tasks.

This module is the single declaration of *what the full reproduction is*:

* ``calibrate`` — a cheap sanity run every sweep depends on; it fails fast
  (before hours of sweeping) if the simulator's basic readouts are off.
* one **sweep task per experiment** (``table1``, ``fig4-udp``, … ,
  ``schedsweep``), with the paper-reproduction parameters in ``full``
  mode and each experiment module's ``FLOW_REDUCED`` overrides in
  ``reduced`` mode (short windows + trimmed grids — what CI runs
  end-to-end);
* one **render task per sweep** producing the paper-style text table;
* the **bench report** (``bench``), with ``bench-compare`` (regression
  gate vs the checked-in baseline) and ``dashboard`` (self-contained
  HTML) downstream of it;
* ``report`` — the concatenation of every render in flat-script order:
  the EXPERIMENTS.md source text.

Every task callable lives at module level and takes ``(deps, **kwargs)``
so it can cross process boundaries; runtime knobs (``jobs``, ``cache``)
ride in the task's *volatile* kwargs and never reach cache keys.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments import ablations, coalescing, fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments import rack, schedzoo, sriov, table1
from repro.flow.graph import FlowError, Task, TaskGraph
from repro.units import MS, SEC

__all__ = ["MODES", "build_graph", "task_names"]

MODES = ("full", "reduced")

#: Full-mode windows (the paper-reproduction defaults).
_WARMUP = 200 * MS
_MEASURE = 500 * MS

#: (task, label, runner, formatter, format args, full-mode params, module)
#: — declaration order is flat-script order; the report joins in it.
_EXPERIMENTS = (
    ("table1", "Table I", table1.run_table1, table1.format_table1, (),
     dict(seed=1, warmup_ns=_WARMUP, measure_ns=_MEASURE), table1),
    ("fig4-udp", "Fig 4a (UDP)", fig4.run_fig4, fig4.format_fig4, ("udp",),
     dict(protocol="udp", seed=1, warmup_ns=_WARMUP, measure_ns=_MEASURE), fig4),
    ("fig4-udp-1024", "Fig 4a (UDP 1024B)", fig4.run_fig4, fig4.format_fig4, ("udp-1024",),
     dict(protocol="udp", payload_size=1024, quotas=(32, 16, 8), seed=1,
          warmup_ns=_WARMUP, measure_ns=_MEASURE), fig4),
    ("fig4-tcp", "Fig 4b (TCP)", fig4.run_fig4, fig4.format_fig4, ("tcp",),
     dict(protocol="tcp", seed=1, warmup_ns=_WARMUP, measure_ns=_MEASURE), fig4),
    ("fig5", "Fig 5", fig5.run_fig5, fig5.format_fig5, (),
     dict(seed=1, warmup_ns=_WARMUP, measure_ns=_MEASURE), fig5),
    ("fig6-send", "Fig 6a (send)", fig6.run_fig6, fig6.format_fig6, ("send",),
     dict(direction="send", seed=3, warmup_ns=300 * MS, measure_ns=600 * MS), fig6),
    ("fig6-receive", "Fig 6b (receive)", fig6.run_fig6, fig6.format_fig6, ("receive",),
     dict(direction="receive", seed=3, warmup_ns=300 * MS, measure_ns=600 * MS), fig6),
    ("fig7", "Fig 7", fig7.run_fig7, fig7.format_fig7, (),
     dict(seed=3, duration_ns=int(1.5 * SEC)), fig7),
    ("fig8-memcached", "Fig 8a (memcached)", fig8.run_fig8, fig8.format_fig8, ("memcached",),
     dict(application="memcached", seed=3, warmup_ns=300 * MS, measure_ns=600 * MS), fig8),
    ("fig8-apache", "Fig 8b (apache)", fig8.run_fig8, fig8.format_fig8, ("apache",),
     dict(application="apache", seed=3, warmup_ns=300 * MS, measure_ns=600 * MS), fig8),
    ("fig9", "Fig 9", fig9.run_fig9, None, (),
     dict(seed=3, duration_ns=2 * SEC, configs=("Baseline", "PI", "PI+H", "PI+H+R")), fig9),
    ("sriov", "SR-IOV (Section VII)", sriov.run_sriov, sriov.format_sriov, (),
     dict(seed=3, warmup_ns=300 * MS, measure_ns=600 * MS), sriov),
    ("ablation", "Ablation: redirection policies",
     ablations.run_redirect_policy_ablation, ablations.format_redirect_ablation, (),
     dict(seed=3, duration_ns=int(1.5 * SEC)), ablations),
    ("coalescing", "Ablation: vIC coalescing vs ES2",
     coalescing.run_coalescing, coalescing.format_coalescing, (),
     dict(seed=5, warmup_ns=_WARMUP, measure_ns=_MEASURE), coalescing),
    ("schedsweep", "Scheduler policy zoo x redirection x adaptive allocation",
     schedzoo.run_sched_sweep, schedzoo.format_sched_sweep, (),
     dict(seed=3, duration_ns=int(0.8 * SEC)), schedzoo),
    ("rack", "Rack: sharded multi-host fan-out",
     rack.run_rack, rack.format_rack, (),
     # telemetry=True: rack observability (stitched spans, barrier
     # profile) rides along; observer-only, the digest check still holds.
     dict(seed=3, warmup_ns=2 * MS, measure_ns=20 * MS, telemetry=True), rack),
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


def experiment_task(deps, runner, params, jobs=None, cache=True):
    """One experiment sweep; ``calibrate`` gates it through ``deps``."""
    return runner(jobs=jobs, cache=cache, **params)


def render_task(deps, source, formatter, format_args=()):
    """Render one sweep's results as the paper-style text table."""
    return formatter(deps[source], *format_args)


def render_fig9_task(deps, source="fig9"):
    """Fig 9 render plus the per-configuration knee lines the flat script printed."""
    from repro.experiments.fig9 import find_knee, format_fig9

    results = deps[source]
    lines = [format_fig9(results)]
    for cfg in sorted({c for (c, _) in results}):
        lines.append(f"knee[{cfg}] = {find_knee(results, cfg)}/s")
    return "\n".join(lines)


def bench_task(deps, profile=False, revision="flow"):
    """The machine-readable bench report (schema-versioned dict)."""
    from repro.obs.bench import run_bench

    return run_bench(profile=profile, revision=revision)


def bench_compare_task(deps, source="bench", baseline="BENCH_baseline.json"):
    """Gate the fresh bench report against the checked-in baseline.

    Reuses scripts/bench_compare.py (the CI gate, loaded via
    :func:`repro.flow.diff.load_bench_compare`) so thresholds and metric
    selection live in one place; raises on regression so the flow exits
    nonzero.  Outside a checkout (no scripts/), the gate degrades to a
    recorded skip rather than a failure.
    """
    import json

    from repro.flow.diff import load_bench_compare, repo_root

    root = repo_root()
    if root is None or not (root / baseline).exists():
        return {"ok": True, "skipped": "no checkout baseline to compare against",
                "lines": []}
    mod = load_bench_compare()
    with open(root / baseline, "r", encoding="utf-8") as fh:
        base = json.load(fh)
    lines, regressions = mod.compare(base, deps[source])
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
#: fails the run, and budgets are volatile-like (excluded from cache
#: keys), so tuning them cannot invalidate cached work.  Values are
#: deliberately generous — they exist to flag a task whose cost
#: *regressed*, not to race healthy runs.
_BUDGETS = {
    "full": {"calibrate": 120.0, "sweep": 3600.0, "render": 60.0,
             "bench": 900.0, "report": 60.0},
    "reduced": {"calibrate": 60.0, "sweep": 600.0, "render": 30.0,
                "bench": 300.0, "report": 30.0},
}


def _budget(mode: str, kind: str) -> Optional[float]:
    return _BUDGETS.get(mode, {}).get(kind)


def build_graph(mode: str = "full", jobs: Optional[int] = None,
                cache: bool = True) -> TaskGraph:
    """The reproduction DAG for one mode.

    ``jobs``/``cache`` are the **inner** sweep-level settings each
    experiment fans out with; they ride in volatile kwargs, so they never
    influence cache keys (results are jobs-independent by the sweep
    determinism contract).
    """
    if mode not in MODES:
        raise FlowError(f"unknown flow mode {mode!r} (expected one of {MODES})")
    graph = TaskGraph()
    volatile = dict(jobs=jobs, cache=cache)
    graph.add(Task(
        name="calibrate", fn=calibrate_task, kind="calibrate",
        budget_s=_budget(mode, "calibrate"),
        kwargs=dict(seed=1) if mode == "full" else dict(seed=1, warmup_ns=10 * MS,
                                                        measure_ns=30 * MS),
        description="sanity-check simulator readouts before sweeping",
    ))
    sections = []
    for name, label, runner, formatter, format_args, full_params, module in _EXPERIMENTS:
        params = dict(full_params)
        if mode == "reduced":
            params.update(module.FLOW_REDUCED)
        graph.add(Task(
            name=name, fn=experiment_task, deps=("calibrate",), kind="sweep",
            budget_s=_budget(mode, "sweep"),
            kwargs=dict(runner=runner, params=params), volatile=volatile,
            description=f"{label} sweep",
        ))
        render_name = f"render-{name}"
        if name == "fig9":
            graph.add(Task(
                name=render_name, fn=render_fig9_task, deps=(name,), kind="render",
                budget_s=_budget(mode, "render"),
                kwargs=dict(source=name), description=f"{label} table + knees",
            ))
        else:
            graph.add(Task(
                name=render_name, fn=render_task, deps=(name,), kind="render",
                budget_s=_budget(mode, "render"),
                kwargs=dict(source=name, formatter=formatter, format_args=format_args),
                description=f"{label} table",
            ))
        sections.append((label, render_name))
    graph.add(Task(
        name="bench", fn=bench_task, deps=("calibrate",), kind="bench",
        budget_s=_budget(mode, "bench"),
        description="machine-readable bench report (BENCH_<rev>.json payload)",
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
