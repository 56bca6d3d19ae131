"""ICMP echo (Ping) round-trip-time measurement — Fig. 7's workload.

The guest answers echoes entirely in softirq context, so the measured RTT
is wire latency + interrupt-delivery latency + echo processing.  Under
multiplexed vCPUs the delivery latency is dominated by vCPU scheduling
delay — unless intelligent redirection steers the interrupt to an online
vCPU.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.guest.ops import GWork
from repro.net.packet import Packet
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.netstack import GuestNetstack
    from repro.net.endpoints import ExternalHost

__all__ = ["Pinger", "GuestPingResponder"]

#: ICMP echo packet size on the wire
_PING_SIZE = 98
#: guest cost to process an echo request and build the reply
_ICMP_NS = us(1.5)


class GuestPingResponder:
    """Guest-side ICMP echo responder (softirq context)."""

    def __init__(self, netstack: "GuestNetstack", flow_id: str, src: str):
        self.netstack = netstack
        self.flow_id = flow_id
        self.src = src
        self.echoes = 0
        self.replies_dropped = 0
        netstack.register_flow(flow_id, self)

    def guest_rx_ops(self, packet, context):
        """NAPI-context guest ops for one received packet."""
        yield GWork(_ICMP_NS)
        self.echoes += 1
        reply = Packet(
            self.flow_id, "pong", _PING_SIZE, dst=self.src, seq=packet.seq,
            created=packet.created, ctx=packet.ctx,
        )
        ok = yield from self.netstack.driver.xmit_ops(reply, _ICMP_NS)
        if not ok:
            self.replies_dropped += 1
            if reply.ctx is not None:
                sim = self.netstack.sim
                sp = sim.obs.spans
                if sp is not None:
                    sp.drop(sim.now, reply.ctx, "tx_ring_full", flow=self.flow_id)


class Pinger:
    """External ping client: periodic echoes, RTT series collection."""

    def __init__(
        self,
        host: "ExternalHost",
        flow_id: str,
        guest_addr: str,
        interval_ns: int,
        jitter: float = 0.2,
    ):
        self.host = host
        self.flow_id = flow_id
        self.guest_addr = guest_addr
        self.interval_ns = interval_ns
        self.jitter = jitter
        self.rtts_ns: List[int] = []
        self.sent = 0
        self._running = False
        self._rng = host.sim.rng.stream(f"ping:{flow_id}")
        host.register_flow(flow_id, self._on_packet)

    def start(self) -> None:
        """Start the workload's traffic/load generation."""
        self._running = True
        self.host.sim.schedule(self._next_interval(), self._send_echo)

    def stop(self) -> None:
        """Stop generating traffic."""
        self._running = False

    def _next_interval(self) -> int:
        # Jitter decorrelates sampling from the host scheduling period.
        spread = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return max(1, int(self.interval_ns * spread))

    def _send_echo(self) -> None:
        if not self._running:
            return
        sim = self.host.sim
        ctx = None
        sp = sim.obs.spans
        if sp is not None:
            ctx = sp.new_context(sim.now, "ping", flow=self.flow_id, seq=self.sent)
        pkt = Packet(
            self.flow_id,
            "ping",
            _PING_SIZE,
            dst=self.guest_addr,
            seq=self.sent,
            created=sim.now,
            ctx=ctx,
        )
        self.sent += 1
        self.host.send_now(pkt)
        self.host.sim.schedule(self._next_interval(), self._send_echo)

    def _on_packet(self, packet) -> None:
        if packet.kind != "pong":
            return
        self.rtts_ns.append(self.host.sim.now - packet.created)

    # ------------------------------------------------------------ reporting
    def rtt_ms_series(self) -> List[float]:
        """All collected round-trip times in milliseconds."""
        return [r / 1e6 for r in self.rtts_ns]

    def max_rtt_ms(self) -> float:
        """Largest observed round-trip time in milliseconds."""
        return max(self.rtt_ms_series(), default=0.0)

    def mean_rtt_ms(self) -> float:
        """Mean round-trip time in milliseconds."""
        series = self.rtt_ms_series()
        return sum(series) / len(series) if series else 0.0
