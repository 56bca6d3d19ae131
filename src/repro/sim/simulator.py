"""The simulator clock and run loop."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError
from repro.obs import (
    InvariantWatchdog,
    Observability,
    SpanRecorder,
    TimelineSampler,
    TraceBus,
)
from repro.sim.event import Event, EventQueue
from repro.sim.rng import RngRegistry
from repro.sim.trace import NullTracer

__all__ = ["Simulator", "CrossShardIngress"]


class CrossShardIngress:
    """Entry point for events stamped by *another* simulator's clock.

    The sharded rack runner (:mod:`repro.cluster`) delivers cross-shard
    packets as ``(stamp, callback)`` pairs at window barriers.  Conservative
    time-window synchronization guarantees every stamp lies at or beyond
    this simulator's clock; this queue is where that invariant is enforced
    rather than assumed — a stamp in the local past raises instead of
    silently reordering history.

    ``injected`` and ``min_margin_ns`` (the smallest observed
    ``stamp - now`` slack) are exported so tests and the bench ``rack``
    block can prove the lookahead bound held for a whole run.
    """

    __slots__ = ("sim", "injected", "min_margin_ns")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.injected = 0
        self.min_margin_ns: Optional[int] = None

    def inject(self, stamp: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``stamp`` (>= now)."""
        now = self.sim.now
        margin = stamp - now
        if margin < 0:
            raise SimulationError(
                f"conservative-sync violation: remote event stamped {stamp} "
                f"arrived with local clock at {now} ({-margin} ns in the past)"
            )
        if self.min_margin_ns is None or margin < self.min_margin_ns:
            self.min_margin_ns = margin
        self.injected += 1
        return self.sim.at(stamp, fn, *args)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams (see :class:`RngRegistry`).
    trace:
        Optional :class:`~repro.obs.TraceBus`; defaults to a no-op tracer.

    The clock is integer nanoseconds, starting at 0.  Events scheduled for
    the same instant fire in scheduling order, which makes runs reproducible
    from ``(code, seed)`` alone.
    """

    def __init__(self, seed: int = 0, trace: Optional[TraceBus] = None) -> None:
        self.now: int = 0
        self.queue = EventQueue()
        #: pre-bound queue peek, called once per fusion attempt (the queue
        #: object never changes after construction)
        self._peek_time = self.queue.peek_time
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else NullTracer()
        self.obs = Observability()
        #: barrier-time entry point for remotely-stamped events (repro.cluster)
        self.ingress = CrossShardIngress(self)
        self._events_fired = 0
        self._events_inlined = 0
        self._fuse_limit: Optional[int] = None

    # ----------------------------------------------------------------- API
    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (statistics/debugging).

        Counts *logical* events: segment completions applied inline by
        :meth:`advance_for_segment` are included, so the figure is
        comparable across runs with and without the fused fast path.
        """
        return self._events_fired

    @property
    def events_inlined(self) -> int:
        """How many of :attr:`events_fired` were fused (never hit the queue)."""
        return self._events_inlined

    # -------------------------------------------------------- observability
    def trace_bus(
        self,
        categories: Optional[Iterable[str]] = None,
        kinds: Optional[Iterable[str]] = None,
        capacity: int = 65536,
    ) -> TraceBus:
        """Install (and return) a :class:`~repro.obs.TraceBus` as the tracer."""
        self.trace = TraceBus(categories=categories, kinds=kinds, capacity=capacity)
        return self.trace

    def enable_spans(
        self,
        sample_every: int = 1,
        capacity: int = 262144,
        categories: Optional[Iterable[str]] = None,
        scope: Optional[str] = None,
    ) -> SpanRecorder:
        """Install per-request event-path span recording (``sim.obs.spans``).

        Installs a :class:`~repro.obs.TraceBus` as the tracer if one is not
        already installed (an existing bus is kept, filters and all, so
        callers can combine spans with their own category selection).  The
        recorder is an observer only: fixed-seed results are byte-identical
        with spans enabled or disabled.  ``scope`` namespaces context ids
        (``"<scope>#<n>"``) so recorders on different rack hosts can be
        merged for cross-shard stitching.
        """
        if not isinstance(self.trace, TraceBus):
            self.trace = TraceBus(categories=categories, capacity=capacity)
        if self.obs.spans is None:
            self.obs.spans = SpanRecorder(self.trace, sample_every=sample_every,
                                          scope=scope)
        return self.obs.spans

    def enable_timeline(
        self,
        window_ns: int = 100_000,
        prefixes: Optional[Iterable[str]] = None,
        watchdog: bool = True,
        start: bool = True,
    ) -> TimelineSampler:
        """Install windowed telemetry sampling (``sim.obs.timeline``).

        The sampler fires every ``window_ns`` of simulated time and
        snapshots the selected counter-group prefixes; ``watchdog=True``
        also installs an :class:`~repro.obs.InvariantWatchdog` as a
        window listener (``sim.obs.watchdog``).  Observer only: the
        boundary events change ``events_fired``/sequence allocation but
        every simulated metric stays byte-identical at a fixed seed.

        Gauges and conservation sources are not wired here — the
        simulator does not know the topology; see
        ``Testbed.enable_timeline`` for the standard wiring.
        """
        if self.obs.timeline is None:
            self.obs.timeline = TimelineSampler(
                self, window_ns=window_ns,
                prefixes=tuple(prefixes) if prefixes is not None else None,
            )
            if watchdog:
                self.obs.watchdog = InvariantWatchdog(self)
                self.obs.timeline.add_listener(self.obs.watchdog.check_window)
        if start and not self.obs.timeline.running:
            self.obs.timeline.start()
        return self.obs.timeline

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now."""
        if delay <= 0:
            if delay < 0:
                raise SimulationError(f"cannot schedule into the past (delay={delay})")
            # Zero-delay events take the FIFO fast lane: same (time, seq)
            # firing order as a heap push at the current instant, no sift.
            return self.queue.push_soon(self.now, fn, args)
        return self.queue.push(self.now + int(delay), fn, args)

    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time`` ns."""
        if time <= self.now:
            if time < self.now:
                raise SimulationError(f"cannot schedule into the past (t={time} < now={self.now})")
            return self.queue.push_soon(self.now, fn, args)
        return self.queue.push(int(time), fn, args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current instant, after pending same-time events."""
        return self.queue.push_soon(self.now, fn, args)

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event.  Returns True if it was still pending."""
        if event.pending:
            event.cancel()
            return True
        return False

    # ------------------------------------------------------------ run loop
    def advance_for_segment(self, delta: int) -> bool:
        """Fuse an uncontended CPU segment: advance the clock ``delta`` ns *now*.

        Returns True — and moves ``now`` forward — only when it is provable
        that the scheduled completion event would have fired with nothing in
        between: the next pending event lies *strictly after* the segment end
        (an event at exactly the end would carry a smaller ``seq`` than the
        completion event and must fire first), and the end is within the
        current ``run_until`` horizon.  Under those conditions applying the
        completion synchronously is byte-identical to the event-queue path:
        new events only arise from firing events, so nothing can interleave.

        Outside ``run_until`` (``step``/``run_until_empty``, which promise
        one event per step) this always returns False.
        """
        limit = self._fuse_limit
        if limit is None:
            return False
        end = self.now + delta
        if end > limit:
            return False
        nxt = self._peek_time()
        if nxt is not None and nxt <= end:
            return False
        self.now = end
        self._events_fired += 1
        self._events_inlined += 1
        return True

    def step(self) -> bool:
        """Execute the next event.  Returns False when no events remain."""
        ev = self.queue.pop()
        if ev is None:
            return False
        if ev.time < self.now:
            raise SimulationError("event heap yielded an event in the past")
        self.now = ev.time
        self._events_fired += 1
        ev.fn(*ev.args)
        return True

    def run_until(self, time: int) -> None:
        """Run events up to and including absolute time ``time``.

        The clock is left at ``time`` even if the queue drains earlier.
        """
        if time < self.now:
            raise SimulationError(f"run_until({time}) is in the past (now={self.now})")
        pop_until = self.queue.pop_until
        prev_limit = self._fuse_limit
        self._fuse_limit = time
        fired = 0
        try:
            while True:
                ev = pop_until(time)
                if ev is None:
                    break
                self.now = ev.time
                fired += 1
                ev.fn(*ev.args)
        finally:
            self._events_fired += fired
            self._fuse_limit = prev_limit
        self.now = max(self.now, time)

    def run_for(self, duration: int) -> None:
        """Run events for ``duration`` ns of simulated time."""
        self.run_until(self.now + int(duration))

    def run_until_empty(self, max_events: int = 10_000_000) -> None:
        """Drain the event queue (bounded by ``max_events`` as a safety net)."""
        for _ in range(max_events):
            if not self.step():
                return
        # The budget may be spent by exactly the event that drained the
        # queue; only an actually non-empty queue is a runaway simulation.
        if len(self.queue):
            raise SimulationError(f"event queue did not drain within {max_events} events")
