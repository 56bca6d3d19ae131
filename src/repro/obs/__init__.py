"""repro.obs — simulation-wide observability.

The paper's entire argument is made through observed event-path metrics
(exit breakdowns, TIG, mode-switch counts, redirect decisions); this
package is the layer that makes those observable *uniformly* instead of
through per-module ad-hoc counters:

* :class:`TraceBus` — ring-buffered structured trace records with
  category filters (``exit``, ``irq``, ``mode_switch``, ``redirect``,
  ``sched``, ``net``); zero-cost when disabled.
* :class:`CounterRegistry` — per-subsystem counter registration, so one
  call can snapshot or reset every counter in a simulation.
* :class:`SpanRecorder` / :mod:`repro.obs.spans` — causal per-request
  trace contexts and milestone marks over the TraceBus, reconstructed
  into critical-path trees (:func:`collect_traces`), aggregated by
  :mod:`repro.obs.pathreport` and exported to Chrome/Perfetto JSON by
  :mod:`repro.obs.export` (not imported here).
* :class:`TimelineSampler` / :mod:`repro.obs.timeline` — windowed
  time-series sampling of the counter registry (rates, gauges, mode
  residencies) on the simulated clock.
* :class:`InvariantWatchdog` / :mod:`repro.obs.watchdog` — per-window
  conservation-law cross-checks raising structured violations.
* :mod:`repro.obs.bench` — the machine-readable bench report (the flow's
  ``bench`` task) that turns all of the above into one schema-versioned
  document (imported lazily: it pulls in the experiment layer).
* :mod:`repro.obs.flowreport` / :mod:`repro.obs.flowdash` — flow-run
  observability: critical-path and resource analysis of a
  ``flow-state.json`` document, and the self-contained Gantt dashboard
  (not imported here: they are consumers of flow state, not simulator
  instrumentation).
* :mod:`repro.obs.render` — the render kit every HTML page and Perfetto
  trace is built from (page shell, stylesheet, tiles, cards, tables,
  trace document and writer).  Not imported here, nor on the import
  path of :mod:`repro.sim` or :mod:`repro.cluster`: every simulator
  process would pay for it.

Every :class:`~repro.sim.simulator.Simulator` owns an
:class:`Observability` instance as ``sim.obs``.  Modules in this package
must not import from the rest of ``repro`` (the simulator imports us);
``bench`` is the deliberate exception and is therefore not imported here.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.counters import CounterRegistry
from repro.obs.pathreport import build_path_report, format_path_report
from repro.obs.spans import PathTrace, SpanRecorder, collect_traces, completed
from repro.obs.timeline import TimelineSampler, WindowSample, downsample
from repro.obs.tracebus import KIND_CATEGORY, TRACE_CATEGORIES, TraceBus, TraceEvent
from repro.obs.watchdog import InvariantWatchdog, WatchdogError, WatchdogViolation

__all__ = [
    "Observability",
    "CounterRegistry",
    "TraceBus",
    "TraceEvent",
    "TRACE_CATEGORIES",
    "KIND_CATEGORY",
    "SpanRecorder",
    "PathTrace",
    "collect_traces",
    "completed",
    "TimelineSampler",
    "WindowSample",
    "downsample",
    "InvariantWatchdog",
    "WatchdogError",
    "WatchdogViolation",
    "build_path_report",
    "format_path_report",
]


class Observability:
    """Per-simulator observability root: the counter registry plus the
    optional observers (spans, timeline, watchdog).  The trace recorder
    stays on ``sim.trace`` — it predates this package and hot paths reach
    it directly — but :meth:`repro.sim.simulator.Simulator.trace_bus`
    installs a :class:`TraceBus` there."""

    def __init__(self) -> None:
        self.counters = CounterRegistry()
        #: per-request span recorder; installed by ``Simulator.enable_spans``
        self.spans: Optional[SpanRecorder] = None
        #: windowed sampler; installed by ``Simulator.enable_timeline``
        self.timeline: Optional[TimelineSampler] = None
        #: invariant watchdog; installed alongside the timeline
        self.watchdog: Optional[InvariantWatchdog] = None
