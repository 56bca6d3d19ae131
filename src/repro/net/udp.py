"""UDP stream flows: unidirectional, connectionless, no flow control.

UDP's "consecutive high I/O load" (Section VI-B) is what lets the hybrid
scheme stay in polling mode almost permanently in Fig. 4a; the only thing
that throttles a UDP sender is the TX ring filling up.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import GuestError
from repro.guest.ops import GWork
from repro.guest.tasks import GuestTask
from repro.net.packet import ETHERNET_OVERHEAD, UDP_HEADER, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.netstack import GuestNetstack
    from repro.net.endpoints import ExternalHost

__all__ = ["GuestUdpTxFlow", "ExternalUdpSink", "GuestUdpRxFlow", "UdpRecvTask", "ExternalUdpSource"]


class GuestUdpTxFlow:
    """Guest-side UDP sender (netperf UDP_STREAM sending)."""

    def __init__(self, netstack: "GuestNetstack", flow_id: str, dst: str, payload_size: int = 256):
        if payload_size <= 0:
            raise GuestError("UDP payload must be positive")
        self.netstack = netstack
        self.flow_id = flow_id
        self.dst = dst
        self.payload_size = payload_size
        self.wire_size = payload_size + UDP_HEADER + ETHERNET_OVERHEAD
        self.task: Optional[GuestTask] = None
        self.datagrams_sent = 0
        netstack.register_flow(flow_id, self)

    def attach_task(self, task: GuestTask) -> None:
        """Bind the guest task that drives this flow's sender loop."""
        self.task = task

    def sender_ops(self):
        """Infinite send loop; use as (part of) a guest task body."""
        if self.task is None:
            raise GuestError(f"flow {self.flow_id}: sender_ops without an attached task")
        cost = self.netstack.cost
        base_cost = cost.guest_udp_tx_ns + int(cost.guest_tx_per_byte_ns * self.wire_size)
        sim = self.netstack.sim
        rng = sim.rng.stream(f"tx:{self.flow_id}")
        # Hoisted: the loop runs once per datagram, and the packet is built
        # positionally (flow, kind, size, dst, seq, acked, created, meta, ctx).
        flow_id, wire_size, dst, task = self.flow_id, self.wire_size, self.dst, self.task
        xmit = self.netstack.xmit_from_task_ops
        jittered = cost.jittered
        obs = sim.obs
        while True:
            ctx = None
            sp = obs.spans
            if sp is not None:
                ctx = sp.new_context(sim.now, "udp-tx", flow=flow_id, seq=self.datagrams_sent)
            pkt = Packet(flow_id, "data", wire_size, dst, self.datagrams_sent, 0, sim.now,
                         None, ctx)
            yield from xmit(task, pkt, jittered(base_cost, rng))
            self.datagrams_sent += 1

    def guest_rx_ops(self, packet, context):  # pragma: no cover - UDP TX is one-way
        """NAPI-context guest ops for one received packet."""
        raise GuestError(f"flow {self.flow_id}: UDP sender received a packet")
        yield


class ExternalUdpSink:
    """External receiver of a guest-sent UDP stream (byte counter)."""

    def __init__(self, host: "ExternalHost", flow_id: str):
        self.host = host
        self.flow_id = flow_id
        self.payload_bytes = 0
        self.datagrams = 0
        host.register_flow(flow_id, self._on_packet)

    def _on_packet(self, packet) -> None:
        self.datagrams += 1
        self.payload_bytes += max(0, packet.size - UDP_HEADER - ETHERNET_OVERHEAD)


class UdpRecvTask(GuestTask):
    """The receiving application thread for a UDP stream (netserver)."""

    def __init__(self, name: str, flow: "GuestUdpRxFlow"):
        super().__init__(name, nice=0)
        self.flow = flow
        flow.attach_receiver(self)
        self._pending_bytes = 0

    def enqueue_bytes(self, payload_bytes: int, waker_context) -> None:
        """Hand received payload bytes to the task and wake it."""
        self._pending_bytes += payload_bytes
        self.wake_task(waker_context)

    def body(self):
        """Thread behaviour (generator of CPU/scheduling requests)."""
        from repro.guest.tasks import TaskBlock

        cost = self.flow.netstack.cost
        while True:
            if self._pending_bytes == 0:
                yield TaskBlock()
                continue
            nbytes, self._pending_bytes = self._pending_bytes, 0
            yield GWork(cost.guest_rx_task_ns + int(cost.guest_rx_task_per_byte_ns * nbytes))
            self.flow.payload_bytes += nbytes


class GuestUdpRxFlow:
    """Guest-side UDP receiver: NAPI demux + task-context consumption.

    Without an attached receiver task the payload is dropped at the socket
    (counted in ``payload_bytes`` immediately), mirroring a socket with no
    reader; workloads always attach a :class:`UdpRecvTask`.
    """

    def __init__(self, netstack: "GuestNetstack", flow_id: str):
        self.netstack = netstack
        self.flow_id = flow_id
        self.payload_bytes = 0
        self.datagrams = 0
        self.receiver = None
        netstack.register_flow(flow_id, self)

    def attach_receiver(self, task: "UdpRecvTask") -> None:
        """Bind the task that consumes this flow's payload."""
        self.receiver = task

    def guest_rx_ops(self, packet, context):
        """NAPI-context guest ops for one received packet."""
        cost = self.netstack.cost
        yield GWork(cost.guest_napi_pkt_ns + int(cost.guest_rx_per_byte_ns * packet.size))
        self.datagrams += 1
        payload = max(0, packet.size - UDP_HEADER - ETHERNET_OVERHEAD)
        if packet.ctx is not None:
            sim = self.netstack.sim
            sp = sim.obs.spans
            if sp is not None:
                sp.mark(sim.now, packet.ctx, "sock_deliver", flow=self.flow_id)
        if self.receiver is not None:
            self.receiver.enqueue_bytes(payload, context)
        else:
            self.payload_bytes += payload


class ExternalUdpSource:
    """External sender blasting UDP datagrams at the guest at a fixed rate."""

    def __init__(
        self,
        host: "ExternalHost",
        flow_id: str,
        guest_addr: str,
        payload_size: int = 1024,
        rate_pps: float = 200_000.0,
    ):
        if rate_pps <= 0:
            raise GuestError("UDP source rate must be positive")
        self.host = host
        self.flow_id = flow_id
        self.guest_addr = guest_addr
        self.payload_size = payload_size
        self.wire_size = payload_size + UDP_HEADER + ETHERNET_OVERHEAD
        self.interval_ns = max(1, int(round(1e9 / rate_pps)))
        self.datagrams_sent = 0
        self._running = False

    def start(self) -> None:
        """Start the workload's traffic/load generation."""
        self._running = True
        self.host.sim.schedule(self.interval_ns, self._tick)

    def stop(self) -> None:
        """Stop generating traffic."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        sim = self.host.sim
        ctx = None
        sp = sim.obs.spans
        if sp is not None:
            ctx = sp.new_context(sim.now, "udp-rx", flow=self.flow_id, seq=self.datagrams_sent)
        pkt = Packet(
            self.flow_id,
            "data",
            self.wire_size,
            dst=self.guest_addr,
            seq=self.datagrams_sent,
            created=sim.now,
            ctx=ctx,
        )
        self.host.send_now(pkt)
        self.datagrams_sent += 1
        self.host.sim.schedule(self.interval_ns, self._tick)
