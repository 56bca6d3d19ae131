"""Windowed time-series telemetry: the simulated-time periodic sampler.

Every headline result of the paper is a *rate or residency over time* —
VM-exit rates, interrupt-injection rates, the hybrid handler's
notification/polling residency — yet counters and spans only capture
end-of-run aggregates and per-request paths.  The timeline closes that
gap: a :class:`TimelineSampler` fires once per window of simulated time
(default 100 µs), snapshots the selected counter groups through
:meth:`~repro.obs.counters.CounterRegistry.snapshot_group` (O(sampled
groups), not a full-registry walk), and derives

* **windowed rates** — every sampled counter's delta over the window,
  scaled to events/second (exits/sec by exit reason, IRQ injections/sec,
  packets tx/rx per second, ... — whatever the sampled groups carry);
* **gauges** — instantaneous values read at the window boundary
  (per-vCPU runqueue depth, virtio ring occupancy, tracker list lengths,
  event-queue depth);
* **residency fractions** — per-window deltas of cumulative-time sources
  (the hybrid handler's notification/polling residency), normalised by
  the window length so fractions sum to 1.

Observer contract (same as :mod:`repro.obs.spans`): the sampler keeps
its own bookkeeping, never draws from simulation RNG streams, and never
mutates simulated state.  It *does* schedule its own boundary events, so
``events_fired`` and event sequence numbers differ between a
timeline-on and a timeline-off run — but every simulated metric is
byte-identical (the boundary callback only reads).  The sampler event is
tracked and cancelled by :meth:`stop`, so ``run_until_empty`` still
drains.

Like every module in :mod:`repro.obs`, this one must not import from
``repro.sim`` (the simulator imports this package); the ``sim`` object
it holds is used through its public surface only (``now``, ``at``,
``obs``, ``queue``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["TimelineSampler", "WindowSample", "DEFAULT_WINDOW_NS", "downsample"]

#: Default sampling window: 100 µs of simulated time.
DEFAULT_WINDOW_NS = 100_000

#: Counter-group prefixes sampled when none are given: the subsystems the
#: paper's argument is made of.  ``None`` entries in a user-supplied list
#: are rejected; an empty tuple samples nothing (gauges only).
DEFAULT_PREFIXES = ("kvm", "vhost", "virtio", "es2", "sched")


class WindowSample:
    """One closed sampling window.

    Attributes
    ----------
    t_start, t_end:
        Window boundaries (simulated ns); ``t_end - t_start`` is the
        window length (the final window of a run may be cut short by
        :meth:`TimelineSampler.stop`).
    deltas:
        ``{"path.counter": int}`` — raw counter deltas over the window.
    rates:
        ``{"path.counter": float}`` — the same deltas scaled to per-second.
    gauges:
        ``{metric_id: float}`` — instantaneous values at ``t_end``, plus
        the per-window residency fractions of cumulative sources.
    """

    __slots__ = ("t_start", "t_end", "deltas", "rates", "gauges")

    def __init__(self, t_start: int, t_end: int,
                 deltas: Dict[str, int], rates: Dict[str, float],
                 gauges: Dict[str, float]):
        self.t_start = t_start
        self.t_end = t_end
        self.deltas = deltas
        self.rates = rates
        self.gauges = gauges

    @property
    def window_ns(self) -> int:
        """Length of this window in simulated ns."""
        return self.t_end - self.t_start

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "rates": dict(self.rates),
            "gauges": dict(self.gauges),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<WindowSample [{self.t_start}, {self.t_end}) "
                f"{len(self.rates)} rates, {len(self.gauges)} gauges>")


class TimelineSampler:
    """Periodic counter/gauge sampler on the simulated clock.

    Parameters
    ----------
    sim:
        The simulator (held, never imported; used for ``now``/``at``/
        ``obs``).
    window_ns:
        Sampling period in simulated ns.
    prefixes:
        Counter-group prefixes to sample (see
        :meth:`CounterRegistry.snapshot_group`); defaults to
        :data:`DEFAULT_PREFIXES`.
    """

    def __init__(self, sim, window_ns: int = DEFAULT_WINDOW_NS,
                 prefixes: Optional[Sequence[str]] = None):
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        self.sim = sim
        self.window_ns = int(window_ns)
        self.prefixes: Tuple[str, ...] = (
            tuple(prefixes) if prefixes is not None else DEFAULT_PREFIXES
        )
        #: closed windows, oldest first
        self.samples: List[WindowSample] = []
        #: boundary events this sampler fired on the simulator's run loop.
        #: These are the only events an observer adds, so readouts that
        #: report ``sim.events_fired`` as a *simulated* metric (the rack
        #: hosts) subtract this to stay byte-identical telemetry on/off.
        self.boundary_events = 0
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._cumulative: Dict[str, Callable[[int], float]] = {}
        self._listeners: List[Callable] = []
        self._prev_flat: Optional[Dict[str, int]] = None
        self._prev_cumulative: Dict[str, float] = {}
        self._window_start: int = 0
        self._pending = None
        self.running = False

    # ------------------------------------------------------------ metric wiring
    def add_gauge(self, metric_id: str, fn: Callable[[], float]) -> None:
        """Register an instantaneous gauge read at each window boundary."""
        self._gauges[metric_id] = fn

    def add_residency(self, metric_id: str, fn: Callable[[int], float]) -> None:
        """Register a cumulative-time source (``fn(now) -> cumulative ns``).

        Each window emits ``gauges[metric_id]`` = (delta over the window)
        / window length — a residency *fraction* in [0, 1].  A source
        added while the sampler runs is measured from the current instant.
        """
        self._cumulative[metric_id] = fn
        if self.running:
            self._prev_cumulative[metric_id] = fn(self.sim.now)

    def add_listener(self, fn: Callable) -> None:
        """``fn(sample, prev_flat, cur_flat)`` fires after each window
        closes (the invariant watchdog hooks in here)."""
        self._listeners.append(fn)

    # ------------------------------------------------------------------ control
    def start(self) -> None:
        """Begin sampling: the first window opens at the current instant."""
        if self.running:
            return
        self.running = True
        self._window_start = self.sim.now
        self._prev_flat = self._snapshot_flat()
        now = self.sim.now
        self._prev_cumulative = {
            mid: fn(now) for mid, fn in self._cumulative.items()
        }
        self._pending = self.sim.at(now + self.window_ns, self._on_boundary)

    def stop(self) -> None:
        """Stop sampling; a partial final window is closed if non-empty."""
        if not self.running:
            return
        self.running = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        if self.sim.now > self._window_start:
            self._close_window(self.sim.now)

    def clear(self) -> None:
        """Drop all collected samples (wiring and schedule are kept)."""
        self.samples.clear()

    # ----------------------------------------------------------------- sampling
    def _snapshot_flat(self) -> Dict[str, int]:
        counters = self.sim.obs.counters
        flat: Dict[str, int] = {}
        for prefix in self.prefixes:
            for path, group in counters.snapshot_group(prefix).items():
                for name, value in group.items():
                    flat[f"{path}.{name}"] = value
        return flat

    def _close_window(self, t_end: int) -> WindowSample:
        cur = self._snapshot_flat()
        prev = self._prev_flat or {}
        t_start = self._window_start
        window_ns = t_end - t_start
        scale = 1e9 / window_ns if window_ns > 0 else 0.0
        deltas: Dict[str, int] = {}
        rates: Dict[str, float] = {}
        for key, value in cur.items():
            delta = value - prev.get(key, 0)
            deltas[key] = delta
            rates[key] = delta * scale
        gauges: Dict[str, float] = {}
        for mid, fn in self._gauges.items():
            gauges[mid] = float(fn())
        for mid, fn in self._cumulative.items():
            total = fn(t_end)
            prev_total = self._prev_cumulative.get(mid, 0.0)
            gauges[mid] = ((total - prev_total) / window_ns) if window_ns > 0 else 0.0
            self._prev_cumulative[mid] = total
        sample = WindowSample(t_start, t_end, deltas, rates, gauges)
        self.samples.append(sample)
        self._prev_flat = cur
        self._window_start = t_end
        for fn in self._listeners:
            fn(sample, prev, cur)
        return sample

    def _on_boundary(self) -> None:
        self._pending = None
        self.boundary_events += 1
        self._close_window(self.sim.now)
        if self.running:
            self._pending = self.sim.at(self.sim.now + self.window_ns,
                                        self._on_boundary)

    # ------------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self.samples)

    def window(self, t_start: int, t_end: int) -> List[WindowSample]:
        """Samples whose window lies entirely inside ``[t_start, t_end]``."""
        return [s for s in self.samples
                if s.t_start >= t_start and s.t_end <= t_end]


# --------------------------------------------------------------------- helpers
def downsample(samples: Sequence[WindowSample], max_windows: int) -> List[WindowSample]:
    """Merge consecutive windows down to at most ``max_windows``.

    Counter deltas are summed and rates recomputed over the merged span
    (so the merged rate is the true average, not a mean of means); gauges
    take the value at the merged window's end; residency fractions are
    time-weight-averaged implicitly by the same rule applied to their
    source deltas — for simplicity the *last* window's fraction is kept,
    which is exact when the merged windows have equal length and the
    fraction is constant, and a documented approximation otherwise.
    """
    samples = list(samples)
    if max_windows <= 0 or len(samples) <= max_windows:
        return samples
    out: List[WindowSample] = []
    per_bucket = -(-len(samples) // max_windows)  # ceil division
    for i in range(0, len(samples), per_bucket):
        bucket = samples[i:i + per_bucket]
        t_start = bucket[0].t_start
        t_end = bucket[-1].t_end
        window_ns = t_end - t_start
        scale = 1e9 / window_ns if window_ns > 0 else 0.0
        deltas: Dict[str, int] = {}
        for s in bucket:
            for key, value in s.deltas.items():
                deltas[key] = deltas.get(key, 0) + value
        rates = {key: value * scale for key, value in deltas.items()}
        out.append(WindowSample(t_start, t_end, deltas, rates,
                                dict(bucket[-1].gauges)))
    return out

