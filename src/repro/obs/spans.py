"""Causal event-path spans: per-request trace contexts on the TraceBus.

The paper's object of study is the *virtual I/O event path* — guest TX
enqueue, virtio kick, vhost service, link transit, MSI routing (and ES2's
redirect decision), vCPU injection, guest RX — but counters and profiles
only show it in aggregate.  This layer threads a **trace context id**
through a packet/request's whole life and records **milestone marks** at
every stage boundary, producing per-request critical-path trees with exact
stage-by-stage latency attribution (the breakdown Figures 4-6 argue from).

Design rules
------------
* **Observers, never participants.**  A :class:`SpanRecorder` allocates
  context ids from its own counter (no simulation RNG), and marking only
  reads ``sim.now`` — fixed-seed results are byte-identical with spans
  enabled or disabled (asserted by test).
* **Marks, not open/close pairs.**  A request's trace is an ordered list
  of timestamped marks; stage *i* spans ``[mark[i-1].t, mark[i].t]``.
  Stage durations therefore telescope: their sum equals the request's
  end-to-end latency exactly (±0 in sim time), no matter which optional
  marks (e.g. the interrupt sub-path) appear.
* **Storage is the TraceBus ring.**  Marks are ordinary ``span-mark``
  records in the ``span`` category; the bounded ring applies.  When the
  ring evicts a trace's early marks, reconstruction flags the trace as
  *truncated* instead of silently reporting a shorter path (see
  :mod:`repro.obs.tracebus` for the eviction semantics).

Mark taxonomy (→ the paper's Fig. 1 event path)::

    origin         request created (guest task TX / external client TX)
    xshard_tx      a rack uplink finished serializing the packet onto the
                   cross-shard fabric (repro.cluster; may recur: request
                   and reply each cross the fabric once)
    xshard_rx      the fabric delivered the packet into the destination
                   host's ingress queue (stamped arrival instant)
    tap_ingress    host NIC received the packet (bridge -> tap backlog)
    vhost_rx_pop   vhost RX handler picked it from the tap backlog
    rx_ring_push   copied into the guest RX ring
    irq_signal     irqfd signalled (attrs: raised / suppressed-by-NAPI)
    irq_route      kvm_set_msi_irq: MSI routing + ES2 redirect decision
    irq_inject     the vector entered the guest's handler on some vCPU
                   (the gap after irq_route is the TIG / scheduling wait)
    guest_rx       guest NAPI popped the packet (softirq, on the vCPU
                   that took — or was redirected — the interrupt)
    sock_deliver   guest stack handed the payload to the socket (terminal
                   for inbound streams consumed by the guest)
    guest_tx       guest driver published a packet on the TX ring
    vhost_tx_pop   vhost TX handler picked it up (attrs: notification or
                   polling service mode)
    wire_tx        backend copied it to the physical NIC
    delivered      the external peer's stack received it (terminal)
    dropped        the packet left the path early (terminal, with reason)

A ping echo traverses the full list; a guest-TX stream datagram only the
``origin → guest_tx → vhost_tx_pop → wire_tx → delivered`` suffix.  The
stage *named after* each arriving mark is the latency accumulated since
the previous mark (:data:`STAGE_OF_POINT`).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "SPAN_MARK_KIND",
    "STAGE_OF_POINT",
    "POINT_ORDER",
    "Mark",
    "Stage",
    "PathTrace",
    "SpanRecorder",
    "collect_traces",
]

#: TraceBus record kind carrying one milestone mark.
SPAN_MARK_KIND = "span-mark"

#: Canonical milestone order along the full event path (Fig. 1).
POINT_ORDER: Tuple[str, ...] = (
    "origin",
    "xshard_tx",
    "xshard_rx",
    "tap_ingress",
    "vhost_rx_pop",
    "rx_ring_push",
    "irq_signal",
    "irq_route",
    "irq_inject",
    "guest_rx",
    "sock_deliver",
    "guest_tx",
    "vhost_tx_pop",
    "wire_tx",
    "delivered",
    "dropped",
)

#: Stage name for the latency accumulated *up to* each milestone.
STAGE_OF_POINT: Dict[str, str] = {
    "xshard_tx": "rack.uplink",
    "xshard_rx": "rack.fabric",
    "tap_ingress": "link.request",
    "vhost_rx_pop": "vhost.backlog_wait",
    "rx_ring_push": "vhost.rx_copy",
    "irq_signal": "irq.coalesce",
    "irq_route": "irq.route",
    "irq_inject": "irq.inject_wait",
    "guest_rx": "guest.napi_wakeup",
    "sock_deliver": "guest.sock_deliver",
    "guest_tx": "guest.process",
    "vhost_tx_pop": "vhost.tx_wait",
    "wire_tx": "vhost.tx_copy",
    "delivered": "link.reply",
    "dropped": "dropped",
}


class Mark(NamedTuple):
    """One timestamped milestone of one request."""

    t: int
    point: str
    attrs: Dict[str, Any]


class Stage(NamedTuple):
    """One attributed segment of a request's critical path."""

    name: str
    point: str
    start: int
    end: int
    attrs: Dict[str, Any]

    @property
    def duration(self) -> int:
        """Stage latency in sim nanoseconds."""
        return self.end - self.start


class PathTrace:
    """The reconstructed critical path of one request context."""

    __slots__ = ("ctx", "marks")

    def __init__(self, ctx, marks: Optional[List[Mark]] = None):
        # ``ctx`` is an int for single-host recorders, a "<scope>#<n>"
        # string for scoped (rack) recorders.
        self.ctx = ctx
        self.marks: List[Mark] = marks if marks is not None else []

    # ------------------------------------------------------------ lifecycle
    @property
    def start(self) -> int:
        """Sim time of the first retained mark."""
        return self.marks[0].t

    @property
    def end(self) -> int:
        """Sim time of the last retained mark."""
        return self.marks[-1].t

    @property
    def total_ns(self) -> int:
        """End-to-end latency covered by the retained marks."""
        return self.end - self.start if self.marks else 0

    @property
    def truncated(self) -> bool:
        """True when ring eviction removed the head of the trace."""
        return bool(self.marks) and self.marks[0].point != "origin"

    @property
    def dropped(self) -> bool:
        """True when the packet left the path early."""
        return bool(self.marks) and self.marks[-1].point == "dropped"

    @property
    def complete(self) -> bool:
        """True for a full origin→terminal path (sum(stages) == latency).

        The terminal is ``delivered`` (the external peer's stack took the
        packet) or ``sock_deliver`` (the guest's own socket consumed an
        inbound stream packet).
        """
        return (
            len(self.marks) >= 2
            and self.marks[0].point == "origin"
            and self.marks[-1].point in ("delivered", "sock_deliver")
        )

    @property
    def orphaned(self) -> bool:
        """Neither completed nor explicitly dropped (died mid-path)."""
        return bool(self.marks) and not self.complete and not self.dropped

    @property
    def kind(self) -> Optional[str]:
        """The request kind recorded at the origin (None if truncated)."""
        if self.marks and self.marks[0].point == "origin":
            return self.marks[0].attrs.get("req")
        return None

    # ---------------------------------------------------------------- stages
    def stages(self) -> List[Stage]:
        """Contiguous stage spans; durations sum to :attr:`total_ns`."""
        out: List[Stage] = []
        for prev, mark in zip(self.marks, self.marks[1:]):
            name = STAGE_OF_POINT.get(mark.point, f"other.{mark.point}")
            out.append(Stage(name, mark.point, prev.t, mark.t, mark.attrs))
        return out

    def attr(self, point: str, key: str, default: Any = None) -> Any:
        """The attribute ``key`` of the first ``point`` mark (else default)."""
        for mark in self.marks:
            if mark.point == point and key in mark.attrs:
                return mark.attrs[key]
        return default

    def has_point(self, point: str) -> bool:
        """True if any retained mark is of the given milestone."""
        return any(m.point == point for m in self.marks)

    # ------------------------------------------------------------- cohorts
    @property
    def tx_mode(self) -> Optional[str]:
        """Backend TX service mode ('notification'/'polling'), if seen."""
        return self.attr("vhost_tx_pop", "mode")

    @property
    def redirected(self) -> bool:
        """True when ES2 redirected this request's RX interrupt."""
        return bool(self.attr("irq_route", "redirected", False))

    def to_span_tree(self) -> Dict[str, Any]:
        """Root request span with the stage spans as children."""
        return {
            "ctx": self.ctx,
            "name": f"request/{self.kind or 'unknown'}",
            "start": self.start if self.marks else 0,
            "end": self.end if self.marks else 0,
            "complete": self.complete,
            "truncated": self.truncated,
            "dropped": self.dropped,
            "children": [
                {
                    "name": s.name,
                    "point": s.point,
                    "start": s.start,
                    "end": s.end,
                    "attrs": dict(s.attrs),
                }
                for s in self.stages()
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover
        pts = "->".join(m.point for m in self.marks)
        return f"<PathTrace #{self.ctx} {pts}>"


class SpanRecorder:
    """Allocates request contexts and emits their milestone marks.

    Parameters
    ----------
    bus:
        Any recorder with the ``record(t, kind, **fields)`` protocol and an
        ``enabled`` flag — in practice the simulator's
        :class:`~repro.obs.tracebus.TraceBus`.
    sample_every:
        Keep one out of every N context allocations (deterministic modulo
        counter, no RNG).  1 traces every request; raise it for high-rate
        streams so the ring holds a representative sample instead of the
        tail.
    scope:
        Optional context-id namespace.  ``None`` (the default) allocates
        plain integer ids; a string makes ids ``"<scope>#<n>"`` so marks
        recorded by *different* recorders (one per rack host) can be
        merged without colliding — the basis of cross-shard stitching
        (:mod:`repro.obs.rack`).

    The recorder never schedules events, never draws from simulation RNG
    streams and never mutates simulated state: with spans enabled, a
    fixed-seed run's results are byte-identical to a plain run.
    """

    def __init__(self, bus, sample_every: int = 1, scope: Optional[str] = None):
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.bus = bus
        self.sample_every = sample_every
        self.scope = scope
        #: total contexts requested (sampled or not)
        self.requested = 0
        #: contexts actually allocated (== traces started)
        self.allocated = 0
        #: cumulative marks emitted per milestone point — unlike the ring,
        #: these survive eviction, so consistency checks against data-path
        #: counters (repro.obs.watchdog) have an exact mark-side count
        self.point_counts: Dict[str, int] = {}
        self._next_ctx = 1
        #: (vm_id, vector) -> {ctx: set(points already marked this episode)}
        self._irq_waiters: Dict[Tuple[int, int], Dict[int, set]] = {}

    # -------------------------------------------------------------- contexts
    def new_context(self, t: int, kind: str, **attrs: Any):
        """Start a trace: allocate a context id and mark its origin.

        Returns None when the deterministic sampler skips this request;
        callers leave ``packet.ctx`` as None and the whole path stays
        uninstrumented for it.
        """
        self.requested += 1
        if (self.requested - 1) % self.sample_every != 0:
            return None
        ctx = (f"{self.scope}#{self._next_ctx}" if self.scope is not None
               else self._next_ctx)
        self._next_ctx += 1
        self.allocated += 1
        counts = self.point_counts
        counts["origin"] = counts.get("origin", 0) + 1
        # "req" not "kind": the bus's record() owns the ``kind`` keyword.
        self.bus.record(t, SPAN_MARK_KIND, ctx=ctx, point="origin", req=kind, **attrs)
        return ctx

    def mark(self, t: int, ctx: int, point: str, **attrs: Any) -> None:
        """Record one milestone for a live context."""
        counts = self.point_counts
        counts[point] = counts.get(point, 0) + 1
        self.bus.record(t, SPAN_MARK_KIND, ctx=ctx, point=point, **attrs)

    def drop(self, t: int, ctx: int, reason: str, **attrs: Any) -> None:
        """Record an early exit from the path (orphan with a cause)."""
        counts = self.point_counts
        counts["dropped"] = counts.get("dropped", 0) + 1
        self.bus.record(t, SPAN_MARK_KIND, ctx=ctx, point="dropped", reason=reason, **attrs)

    # --------------------------------------------------- interrupt sub-path
    # The irqfd -> MSI route -> injection sub-path is not packet-granular:
    # one interrupt covers every packet copied into the RX ring since the
    # last NAPI poll.  Requests therefore *register* as waiters on their
    # device's (vm, vector) after the ring copy, and each interrupt
    # milestone is marked once per waiting request (deduplicated per wait
    # episode, so a second interrupt racing an unfinished poll does not
    # double-mark).

    def irq_wait(self, ctx: int, vm_id: int, vector: int) -> None:
        """Register a request as waiting for its device's RX interrupt."""
        self._irq_waiters.setdefault((vm_id, vector), {})[ctx] = set()

    def irq_unwait(self, ctx: int, vm_id: int, vector: int) -> None:
        """The request was picked up by guest NAPI; stop marking it."""
        waiters = self._irq_waiters.get((vm_id, vector))
        if waiters is not None:
            waiters.pop(ctx, None)

    def irq_mark(self, t: int, vm_id: int, vector: int, point: str, **attrs: Any) -> None:
        """Mark one interrupt milestone for every waiting request."""
        waiters = self._irq_waiters.get((vm_id, vector))
        if not waiters:
            return
        counts = self.point_counts
        for ctx, seen in waiters.items():
            if point in seen:
                continue
            seen.add(point)
            counts[point] = counts.get(point, 0) + 1
            self.bus.record(t, SPAN_MARK_KIND, ctx=ctx, point=point, **attrs)

    def clear(self) -> None:
        """Forget waiter bookkeeping (retained marks stay on the bus)."""
        self._irq_waiters.clear()


def collect_traces(bus) -> Dict[int, PathTrace]:
    """Rebuild per-request traces from the retained ``span-mark`` records.

    Reconstruction is best-effort over the ring: traces whose early marks
    were evicted come back with :attr:`PathTrace.truncated` set, so
    degradation is explicit (the path report counts them separately)
    rather than silently reporting shortened paths.
    """
    traces: Dict[int, PathTrace] = {}
    for t, fields in bus.of_kind(SPAN_MARK_KIND):
        attrs = {k: v for k, v in fields.items() if k not in ("ctx", "point")}
        ctx = fields["ctx"]
        trace = traces.get(ctx)
        if trace is None:
            trace = traces[ctx] = PathTrace(ctx)
        trace.marks.append(Mark(t, fields["point"], attrs))
    return traces

