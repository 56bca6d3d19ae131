"""Windowed TCP stream flows (guest↔external).

The model is a fixed-window byte stream: the sender keeps up to
``window_segments`` MSS segments in flight; the receiver acknowledges every
``ack_every`` segments (delayed ACK).  There is no loss or congestion
control — the testbed link is lossless and the paper's effects are not
loss-driven (see DESIGN.md §7) — but the window/ACK clocking reproduces the
behaviours the evaluation depends on:

* TCP's *fluctuating* offered load (bursts gated by returning ACKs), which
  keeps some notification-mode episodes alive under hybrid handling
  (Fig. 4b vs. 4a);
* the sensitivity of TCP throughput to the guest's interrupt-processing
  latency (ACKs stuck behind vCPU scheduling), which is what intelligent
  redirection recovers in Fig. 6.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import GuestError
from repro.guest.ops import GWork
from repro.guest.tasks import GuestTask, TaskBlock
from repro.net.packet import ACK_SIZE, ETHERNET_OVERHEAD, MSS, TCP_HEADER, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.netstack import GuestNetstack
    from repro.net.endpoints import ExternalHost

__all__ = ["GuestTcpTxFlow", "ExternalTcpSink", "GuestTcpRxFlow", "TcpRecvTask", "ExternalTcpSource"]


class GuestTcpTxFlow:
    """Guest-side sender of a TCP stream (netperf TCP_STREAM sending)."""

    def __init__(
        self,
        netstack: "GuestNetstack",
        flow_id: str,
        dst: str,
        payload_size: int = MSS,
        window_segments: int = 64,
    ):
        if payload_size <= 0 or payload_size > MSS:
            raise GuestError(f"TCP payload must be in (0, {MSS}]")
        self.netstack = netstack
        self.flow_id = flow_id
        self.dst = dst
        self.payload_size = payload_size
        self.wire_size = payload_size + TCP_HEADER + ETHERNET_OVERHEAD
        self.window = window_segments
        self.task: Optional[GuestTask] = None
        self.in_flight = 0
        self.seq = 0
        self.segments_sent = 0
        self.acks_received = 0
        self._blocked_on_window = False
        netstack.register_flow(flow_id, self)

    def attach_task(self, task: GuestTask) -> None:
        """Bind the guest task that drives this flow's sender loop."""
        self.task = task

    # ------------------------------------------------------------- task side
    def sender_ops(self):
        """Infinite send loop; use as (part of) a guest task body."""
        if self.task is None:
            raise GuestError(f"flow {self.flow_id}: sender_ops without an attached task")
        cost = self.netstack.cost
        base_cost = cost.guest_tcp_tx_ns + int(cost.guest_tx_per_byte_ns * self.wire_size)
        rng = self.netstack.sim.rng.stream(f"tx:{self.flow_id}")
        while True:
            while self.in_flight >= self.window:
                self._blocked_on_window = True
                yield TaskBlock()
            pkt = Packet(
                self.flow_id,
                "data",
                self.wire_size,
                dst=self.dst,
                seq=self.seq,
                created=self.netstack.sim.now,
            )
            yield from self.netstack.driver.xmit_ops(
                pkt, cost.jittered(base_cost, rng), self.task
            )
            self.seq += 1
            self.in_flight += 1
            self.segments_sent += 1

    # ------------------------------------------------------------ NAPI side
    def guest_rx_ops(self, packet, context):
        """NAPI-context guest ops for one received packet."""
        if packet.kind != "ack":
            raise GuestError(f"flow {self.flow_id}: unexpected {packet.kind} packet")
        yield GWork(self.netstack.cost.guest_ack_rx_ns)
        self.acks_received += 1
        self.in_flight = max(0, self.in_flight - packet.acked)
        if self._blocked_on_window and self.in_flight < self.window:
            self._blocked_on_window = False
            self.task.wake_task(context)


class ExternalTcpSink:
    """External receiver for a guest-sent TCP stream; generates delayed ACKs."""

    def __init__(self, host: "ExternalHost", flow_id: str, guest_addr: str, ack_every: int = 2):
        self.host = host
        self.flow_id = flow_id
        self.guest_addr = guest_addr
        self.ack_every = ack_every
        self.payload_bytes = 0
        self.segments = 0
        self._unacked = 0
        host.register_flow(flow_id, self._on_packet)

    def _on_packet(self, packet) -> None:
        if packet.kind != "data":
            return
        self.segments += 1
        self.payload_bytes += max(0, packet.size - TCP_HEADER - ETHERNET_OVERHEAD)
        self._unacked += 1
        if self._unacked >= self.ack_every:
            acked, self._unacked = self._unacked, 0
            self.host.send(
                Packet(self.flow_id, "ack", ACK_SIZE, dst=self.guest_addr, acked=acked)
            )


class TcpRecvTask(GuestTask):
    """The receiving application thread (netserver): copy-to-user + app work.

    NAPI hands segments over per-stream; the heavy per-byte cost runs here,
    in task context on the stream's own vCPU — the layer split that lets
    redirected interrupts parallelize receive processing across vCPUs.
    """

    def __init__(self, name: str, flow: "GuestTcpRxFlow"):
        super().__init__(name, nice=0)
        self.flow = flow
        flow.attach_receiver(self)
        self._pending_bytes = 0
        self._pending_segments = 0

    def enqueue_segments(self, payload_bytes: int, segments: int, waker_context) -> None:
        """Hand received segments to the task and wake it."""
        self._pending_bytes += payload_bytes
        self._pending_segments += segments
        self.wake_task(waker_context)

    def body(self):
        """Thread behaviour (generator of CPU/scheduling requests)."""
        flow = self.flow
        cost = flow.netstack.cost
        while True:
            if self._pending_bytes == 0:
                yield TaskBlock()
                continue
            nbytes, self._pending_bytes = self._pending_bytes, 0
            self._pending_segments = 0
            yield GWork(cost.guest_rx_task_ns + int(cost.guest_rx_task_per_byte_ns * nbytes))
            flow.on_consumed(nbytes)
            # Consuming may reopen the receive window: send the pending ACK
            # from task context (the window-update path).
            if flow.window_update_needed():
                yield from flow.emit_ack_ops()


class GuestTcpRxFlow:
    """Guest-side receiver of a TCP stream (netperf TCP_STREAM receiving).

    NAPI/softirq does protocol processing and delayed-ACK generation (the
    source of the residual I/O-instruction exits in Fig. 5b); the attached
    :class:`TcpRecvTask` consumes the payload in task context.  ACKs are
    withheld while more than ``rcv_buf_bytes`` sit unconsumed, so a stalled
    receiver task backpressures the external sender instead of letting the
    guest buffer grow without bound.
    """

    def __init__(
        self,
        netstack: "GuestNetstack",
        flow_id: str,
        src: str,
        ack_every: int = 2,
        rcv_buf_bytes: int = 512 * 1024,
    ):
        self.netstack = netstack
        self.flow_id = flow_id
        self.src = src
        self.ack_every = ack_every
        self.rcv_buf_bytes = rcv_buf_bytes
        self.payload_bytes = 0
        self.segments = 0
        self.buffered_bytes = 0
        self.acks_sent = 0
        self.acks_deferred = 0
        self.acks_withheld = 0
        self._unacked = 0
        self.receiver: Optional[TcpRecvTask] = None
        netstack.register_flow(flow_id, self)

    def attach_receiver(self, task: TcpRecvTask) -> None:
        """Bind the task that consumes this flow's payload."""
        self.receiver = task

    # ------------------------------------------------------------ NAPI side
    def guest_rx_ops(self, packet, context):
        """NAPI-context guest ops for one received packet."""
        if packet.kind != "data":
            raise GuestError(f"flow {self.flow_id}: unexpected {packet.kind} packet")
        if self.receiver is None:
            raise GuestError(f"flow {self.flow_id}: no receiver task attached")
        cost = self.netstack.cost
        yield GWork(cost.guest_napi_pkt_ns + int(cost.guest_rx_per_byte_ns * packet.size))
        payload = max(0, packet.size - TCP_HEADER - ETHERNET_OVERHEAD)
        self.segments += 1
        self.buffered_bytes += payload
        self._unacked += 1
        self.receiver.enqueue_segments(payload, 1, context)
        if self._unacked >= self.ack_every:
            if self.buffered_bytes > self.rcv_buf_bytes:
                # Receive buffer full: withhold the ACK; the window update
                # goes out from task context once the app consumes.
                self.acks_withheld += 1
            else:
                yield from self.emit_ack_ops()

    # ------------------------------------------------------------- task side
    def on_consumed(self, nbytes: int) -> None:
        """Application consumed payload: shrink the receive buffer."""
        self.buffered_bytes = max(0, self.buffered_bytes - nbytes)
        self.payload_bytes += nbytes

    def window_update_needed(self) -> bool:
        """True when a deferred ACK should be flushed from task context."""
        return self._unacked >= self.ack_every and self.buffered_bytes <= self.rcv_buf_bytes // 2

    def emit_ack_ops(self):
        """Transmit the pending cumulative ACK (softirq or task context)."""
        acked = self._unacked
        if acked == 0:
            return
        cost = self.netstack.cost
        ack = Packet(self.flow_id, "ack", ACK_SIZE, dst=self.src, acked=acked)
        ok = yield from self.netstack.driver.xmit_ops(ack, cost.guest_ack_tx_ns)
        if ok:
            self._unacked = 0
            self.acks_sent += 1
        else:
            # TX ring full: leave the ACK pending; the next segment or
            # consume retriggers it (cumulative ACKs make this safe).
            self.acks_deferred += 1


class ExternalTcpSource:
    """External sender of a TCP stream toward the guest (windowed)."""

    def __init__(
        self,
        host: "ExternalHost",
        flow_id: str,
        guest_addr: str,
        payload_size: int = MSS,
        window_segments: int = 64,
    ):
        self.host = host
        self.flow_id = flow_id
        self.guest_addr = guest_addr
        self.payload_size = payload_size
        self.wire_size = payload_size + TCP_HEADER + ETHERNET_OVERHEAD
        self.window = window_segments
        self.in_flight = 0
        self.seq = 0
        self.segments_sent = 0
        self.acks_received = 0
        host.register_flow(flow_id, self._on_packet)
        self._started = False

    def start(self) -> None:
        """Start the workload's traffic/load generation."""
        self._started = True
        self._fill_window()

    def _fill_window(self) -> None:
        while self.in_flight < self.window:
            pkt = Packet(
                self.flow_id,
                "data",
                self.wire_size,
                dst=self.guest_addr,
                seq=self.seq,
                created=self.host.sim.now,
            )
            self.host.send(pkt)
            self.seq += 1
            self.in_flight += 1
            self.segments_sent += 1

    def _on_packet(self, packet) -> None:
        if packet.kind != "ack":
            return
        self.acks_received += 1
        self.in_flight = max(0, self.in_flight - packet.acked)
        if self._started:
            self._fill_window()
