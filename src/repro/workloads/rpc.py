"""Shared request/response machinery for the macro workloads.

Memcached and Apache are both closed-loop request/response services: an
external load generator keeps a fixed number of requests outstanding over a
set of connections; the guest demultiplexes each request (in NAPI/softirq
context, on whichever vCPU took the interrupt) onto a per-vCPU server
worker task, which performs the service work and transmits the response.

Connections are distributed round-robin over the worker tasks, as
multi-threaded servers do.  NAPI-side demux is cheap; the service cost and
response transmission run in task context and therefore only progress when
the worker's vCPU is scheduled — which is why interrupt redirection alone
does not make offline workers run, but does get requests *into* their
queues (and ACK/protocol work done) without waiting for vCPU 0.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.guest.ops import GWork
from repro.guest.tasks import GuestTask, TaskBlock
from repro.net.packet import ETHERNET_OVERHEAD, MSS, TCP_HEADER, Packet
from repro.sim.stats import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.testbed import Testbed

__all__ = ["ServerWorkerTask", "GuestServiceFlow", "ClosedLoopClient", "Request"]


class Request:
    """One in-flight request (guest-side bookkeeping).

    ``reply_to`` overrides the worker's default response address — a rack
    server VM answers clients on many hosts, so the destination is a
    property of the connection, not of the worker thread.
    """

    __slots__ = ("flow_id", "kind", "service_ns", "response_bytes", "created", "conn",
                 "reply_to", "ctx")

    def __init__(self, flow_id, kind, service_ns, response_bytes, created, conn,
                 reply_to=None, ctx=None):
        self.flow_id = flow_id
        self.kind = kind
        self.service_ns = service_ns
        self.response_bytes = response_bytes
        self.created = created
        self.conn = conn
        self.reply_to = reply_to
        #: span trace context inherited from the request packet; travels
        #: through service and is re-attached to the *final* response
        #: segment (the one that completes the client's operation)
        self.ctx = ctx


class ServerWorkerTask(GuestTask):
    """A server worker thread bound to one vCPU: pops requests, serves them,
    transmits responses (segmented at the MSS)."""

    def __init__(self, name: str, netstack, reply_to: str):
        super().__init__(name, nice=0)
        self.netstack = netstack
        self.reply_to = reply_to
        self.queue: Deque[Request] = deque()
        self.served = 0

    def enqueue(self, request: Request, waker_context=None) -> None:
        """Queue a request and wake the worker task."""
        self.queue.append(request)
        self.wake_task(waker_context)

    def enqueue_from(self, context, request: Request) -> None:
        """Queue a request, attributing the wake to a guest context."""
        self.enqueue(request, waker_context=context)

    def body(self):
        """Thread behaviour (generator of CPU/scheduling requests)."""
        cost = self.netstack.cost
        while True:
            if not self.queue:
                yield TaskBlock()
                continue
            req = self.queue.popleft()
            yield GWork(req.service_ns)
            # Segment the response at the MSS and transmit each piece.
            remaining = req.response_bytes
            seq = 0
            while remaining > 0:
                chunk = min(remaining, MSS)
                remaining -= chunk
                wire = chunk + TCP_HEADER + ETHERNET_OVERHEAD
                tx_cost = cost.guest_tcp_tx_ns + int(cost.guest_tx_per_byte_ns * wire)
                final = remaining == 0
                pkt = Packet(
                    req.flow_id,
                    "resp",
                    wire,
                    dst=req.reply_to if req.reply_to is not None else self.reply_to,
                    seq=seq,
                    created=req.created,
                    meta=(req.conn, final),
                    ctx=req.ctx if final else None,
                )
                yield from self.netstack.driver.xmit_ops(pkt, tx_cost, self)
                seq += 1
            self.served += 1


class GuestServiceFlow:
    """NAPI-side receiver for one connection: demuxes requests to a worker.

    ``reply_to`` fixes the response address for every request on this
    connection (rack clients live on other hosts); None keeps the worker's
    default — the single-testbed external peer.
    """

    def __init__(self, netstack, flow_id: str, worker: ServerWorkerTask,
                 reply_to: Optional[str] = None):
        self.netstack = netstack
        self.flow_id = flow_id
        self.worker = worker
        self.reply_to = reply_to
        self.requests_received = 0
        netstack.register_flow(flow_id, self)

    def guest_rx_ops(self, packet, context):
        """NAPI-context guest ops for one received packet."""
        cost = self.netstack.cost
        yield GWork(cost.guest_napi_pkt_ns + int(cost.guest_rx_per_byte_ns * packet.size))
        self.requests_received += 1
        if packet.ctx is not None:
            sim = self.netstack.sim
            sp = sim.obs.spans
            if sp is not None:
                sp.mark(sim.now, packet.ctx, "sock_deliver", flow=self.flow_id)
        service_ns, response_bytes = packet.meta
        request = Request(
            self.flow_id,
            packet.kind,
            service_ns,
            response_bytes,
            packet.created,
            packet.seq,
            reply_to=self.reply_to,
            ctx=packet.ctx,
        )
        self.worker.enqueue_from(context, request)


class ClosedLoopClient:
    """External load generator: fixed outstanding requests per connection.

    Each outstanding slot operates independently: send a request, wait for
    the complete response, immediately send the next.  Op latencies and
    completed-op counts are recorded for throughput/latency readout.
    """

    def __init__(
        self,
        testbed: "Testbed",
        flow_ids: List[str],
        guest_addr: str,
        outstanding_per_conn: int,
        request_factory: Callable[[object], tuple],
    ):
        if outstanding_per_conn <= 0:
            raise WorkloadError("need at least one outstanding request per connection")
        self.testbed = testbed
        self.external = testbed.external
        self.guest_addr = guest_addr
        self.flow_ids = flow_ids
        self.outstanding = outstanding_per_conn
        #: ``request_factory(rng) -> (kind, wire_size, service_ns, response_bytes)``
        self.request_factory = request_factory
        self.completed = 0
        self.latency = Histogram()
        self._rng = testbed.sim.rng.stream(f"client:{guest_addr}")
        self._next_conn = 0
        self._pending_resp_bytes = {}
        self._mark_ops = 0
        self._mark_time = 0
        for fid in flow_ids:
            self.external.register_flow(fid, self._on_response)

    def start(self) -> None:
        """Start the workload's traffic/load generation."""
        for fid in self.flow_ids:
            for _ in range(self.outstanding):
                self._send_request(fid)

    def _send_request(self, flow_id: str) -> None:
        kind, wire_size, service_ns, response_bytes = self.request_factory(self._rng)
        conn = self._next_conn
        self._next_conn += 1
        pkt = Packet(
            flow_id,
            kind,
            wire_size,
            dst=self.guest_addr,
            seq=conn,
            created=self.testbed.sim.now,
            meta=(service_ns, response_bytes),
        )
        self.external.send(pkt)

    def _on_response(self, packet) -> None:
        conn, final = packet.meta
        flow, created = packet.flow, packet.created
        if not final:
            return
        self.completed += 1
        self.latency.add(self.testbed.sim.now - created)
        self._send_request(flow)

    # ------------------------------------------------------------ measuring
    def mark(self) -> None:
        """Start (or restart) the measurement window at the current time."""
        self._mark_ops = self.completed
        self._mark_time = self.testbed.sim.now

    def ops_per_sec(self) -> float:
        """Completed operations per second since the last mark."""
        elapsed = self.testbed.sim.now - self._mark_time
        if elapsed <= 0:
            return 0.0
        return (self.completed - self._mark_ops) * 1e9 / elapsed
