"""One shard: a group of rack hosts advancing in conservative time windows.

A shard owns a deterministic subset of the rack's hosts, each on its own
simulator.  Between barriers it advances every host to the common window
end; at barriers it drains the messages its hosts emitted (via their
:class:`~repro.cluster.link.CrossShardLink` uplinks) and injects the
messages routed to it — sorted by the global
:func:`~repro.cluster.link.message_sort_key`, so event sequence-number
allocation on every receiving host is identical under any shard layout.

The safety argument (why injection never lands in a host's past): during
the window ending at ``T`` every emission happens at a simulator clock
``t <= T``, and its stamped arrival is ``serialize(t) + propagation >=
t + lookahead``.  Messages are injected at the *following* barrier, when
every clock reads exactly ``T``; since the window length never exceeds
the lookahead, ``arrival >= t_prev_window_start + lookahead >= T`` holds
for every message, and the receiving simulator's ingress queue
re-checks the inequality at injection rather than trusting it.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from typing import Dict, List, Optional

from repro.cluster.host import RackClientHost, RackServerHost, build_host
from repro.cluster.link import Message, decode_packet, encode_packet, message_sort_key
from repro.cluster.topology import RackSpec, RackTelemetry
from repro.errors import ClusterError
from repro.obs.spans import SPAN_MARK_KIND

__all__ = ["ShardFabric", "Shard"]


class ShardFabric:
    """The rack fabric as seen from inside one shard process.

    Collects stamped emissions from local uplinks into an outbox (drained
    at each barrier) and delivers inbound messages into the owning host's
    simulator ingress queue.
    """

    def __init__(self, addr_to_host: Dict[str, str]):
        self._addr_to_host = addr_to_host
        self._outbox: List[Message] = []
        self._send_seq: Dict[str, int] = {}
        #: host name -> (simulator, wire-receive callable)
        self._local_rx = {}
        self.emitted = 0
        self.delivered = 0

    # ------------------------------------------------------------ topology
    def register_host(self, name: str, sim, rx) -> None:
        """Bind one local host's simulator and wire-RX entry point."""
        if name in self._local_rx:
            raise ClusterError(f"host {name} already registered with the fabric")
        self._local_rx[name] = (sim, rx)
        self._send_seq.setdefault(name, 0)

    # ------------------------------------------------------------- egress
    def emit(self, src_host: str, arrival_ns: int, packet) -> None:
        """Queue one stamped cross-host delivery (called by uplinks)."""
        dst_host = self._addr_to_host.get(packet.dst)
        if dst_host is None:
            raise ClusterError(
                f"{src_host}: packet to unknown address {packet.dst!r}"
            )
        seq = self._send_seq[src_host]
        self._send_seq[src_host] = seq + 1
        self._outbox.append(
            (arrival_ns, dst_host, src_host, seq, encode_packet(packet))
        )
        self.emitted += 1

    def drain_outbox(self) -> List[Message]:
        """All messages emitted since the previous drain."""
        out, self._outbox = self._outbox, []
        return out

    # ------------------------------------------------------------ ingress
    def deliver(self, msg: Message) -> None:
        """Inject one inbound message into its host's ingress queue."""
        arrival_ns, dst_host, src_host, _seq, fields = msg
        entry = self._local_rx.get(dst_host)
        if entry is None:
            raise ClusterError(f"message routed to non-local host {dst_host}")
        sim, rx = entry
        packet = decode_packet(fields)
        if packet.ctx is not None:
            sp = sim.obs.spans
            if sp is not None:
                # Marked at barrier time with the *stamped arrival* as the
                # mark instant — the same t under every shard layout.
                sp.mark(arrival_ns, packet.ctx, "xshard_rx", src=src_host)
        sim.ingress.inject(arrival_ns, rx, packet)
        self.delivered += 1


class Shard:
    """The hosts of one shard plus their window-advance machinery."""

    def __init__(self, spec: RackSpec, host_names,
                 telemetry: Optional[RackTelemetry] = None):
        self.spec = spec
        self.telemetry_cfg = telemetry
        self.fabric = ShardFabric(spec.address_map())
        # Canonical rack order, not assignment order: host build order is
        # layout-invariant, so any shared module-level state (packet ids)
        # is touched identically however hosts are grouped.
        ordered = [h for h in spec.hosts if h in set(host_names)]
        self.hosts = OrderedDict((name, build_host(name, self.fabric, spec))
                                 for name in ordered)
        self.run_wall_s = 0.0
        self.last_window_wall_s = 0.0
        if telemetry is not None:
            self._enable_telemetry(telemetry.validate())

    def _enable_telemetry(self, cfg: RackTelemetry) -> None:
        """Instrument every local host (observers only — no simulated effect).

        Each host gets its own TraceBus (span + watchdog categories) and a
        *host-scoped* span recorder, so context ids are globally unique and
        the coordinator can merge marks across hosts.  Server hosts also get
        the standard windowed-timeline wiring (gauges, residencies, invariant
        watchdog) from their Testbed superclass; client hosts have no
        counter groups worth sampling, so they only record spans.
        """
        for name, host in self.hosts.items():
            sim = host.sim
            if cfg.spans:
                sim.trace_bus(categories=("span", "watchdog"),
                              capacity=cfg.span_capacity)
                sim.enable_spans(sample_every=cfg.sample_every, scope=name)
            if cfg.timeline and isinstance(host, RackServerHost):
                host.enable_timeline(window_ns=cfg.timeline_window_ns)

    # -------------------------------------------------------------- control
    def start(self) -> None:
        """Start every client host's closed-loop load."""
        for host in self.hosts.values():
            if isinstance(host, RackClientHost):
                host.start()

    def mark(self) -> None:
        """Open the measurement window on every local client host."""
        for host in self.hosts.values():
            if isinstance(host, RackClientHost):
                host.mark()

    def run_window(self, t_end: int, inbound: List[Message]) -> List[Message]:
        """Inject ``inbound``, advance every host to ``t_end``, drain egress.

        ``inbound`` may arrive in any order; the global sort here is what
        pins the injection order across layouts.
        """
        t0 = perf_counter()
        for msg in sorted(inbound, key=message_sort_key):
            self.fabric.deliver(msg)
        for host in self.hosts.values():
            host.sim.run_until(t_end)
        out = self.fabric.drain_outbox()
        self.last_window_wall_s = perf_counter() - t0
        self.run_wall_s += self.last_window_wall_s
        return out

    def window_stats(self) -> Dict[str, float]:
        """The per-window record piggybacked on each barrier reply.

        Cheap on purpose (two numbers): the coordinator derives per-window
        compute wall, events, straggler attribution and lookahead
        utilization from the deltas, without a second readout protocol.
        """
        return {"wall_s": self.last_window_wall_s,
                "events": float(self.events_fired())}

    # -------------------------------------------------------------- readout
    def results(self) -> Dict[str, dict]:
        """Per-host simulated readouts (layout-invariant by construction)."""
        return {name: host.result() for name, host in self.hosts.items()}

    def events_fired(self) -> int:
        """Total events executed across this shard's hosts."""
        return sum(host.sim.events_fired for host in self.hosts.values())

    def host_telemetry(self):
        """Per-host telemetry bundles shipped to the coordinator at finish.

        Plain picklable values only (the coordinator lives in another
        process): span marks as tuples, timeline windows as dicts carrying
        raw *deltas* (rates are recomputed after any merge) and watchdog
        verdicts.  Returns None when telemetry was never enabled for this
        shard.
        """
        if self.telemetry_cfg is None:
            return None
        out: Dict[str, dict] = {}
        for name, host in self.hosts.items():
            sim = host.sim
            bundle: Dict[str, object] = {}
            sp = sim.obs.spans
            if sp is not None:
                bundle["span_marks"] = [
                    (t, fields["ctx"], fields["point"],
                     {k: v for k, v in fields.items() if k not in ("ctx", "point")})
                    for t, fields in sim.trace.of_kind(SPAN_MARK_KIND)
                ]
                bundle["span_stats"] = {
                    "requested": sp.requested,
                    "allocated": sp.allocated,
                    "marks_evicted": sim.trace.evicted,
                    "point_counts": dict(sp.point_counts),
                }
            tl = sim.obs.timeline
            if tl is not None:
                tl.stop()
                bundle["timeline"] = {
                    "window_ns": tl.window_ns,
                    "boundary_events": tl.boundary_events,
                    "windows": [
                        {"t_start": s.t_start, "t_end": s.t_end,
                         "deltas": dict(s.deltas), "gauges": dict(s.gauges)}
                        for s in tl.samples
                    ],
                }
            wd = sim.obs.watchdog
            if wd is not None:
                bundle["watchdog"] = {
                    "windows_checked": wd.windows_checked,
                    "violations": [v.as_dict() for v in wd.violations],
                }
            out[name] = bundle
        return out
