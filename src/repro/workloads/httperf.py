"""Httperf connection-time workload (Fig. 9).

Httperf opens TCP connections at a fixed *open-loop* rate and measures the
average time to establish each connection.  The guest answers SYNs in
softirq context when the accept backlog has room; when the backlog is full
the SYN is silently dropped (Linux ``tcp_abort_on_overflow=0``) and the
client retransmits after a 1-second timeout — which is what makes the
average connection time explode once the arrival rate exceeds the VM's
drain capacity ("the tested VM suffers from a significant suspending event
overflow", Section VI-E).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, TYPE_CHECKING

from repro.guest.ops import GWork
from repro.guest.tasks import GuestTask, TaskBlock
from repro.net.packet import Packet
from repro.units import SEC, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.testbed import Testbed, VmSetup

__all__ = ["HttperfWorkload"]

_SYN_WIRE = 74
_SYNACK_WIRE = 74
#: softirq cost of SYN processing + SYN-ACK generation
_SYN_SERVICE_NS = us(3)
#: accept() + HTTP request/response handling per connection in the server
#: task (httperf performs a full GET per connection)
_ACCEPT_SERVICE_NS = us(350)
#: SYN retransmission timeout (Linux initial SYN RTO)
_SYN_RTO_NS = 1 * SEC
_MAX_RETRIES = 4


class _AcceptWorker(GuestTask):
    """Server task draining the accept backlog."""

    def __init__(self, name: str, workload: "HttperfWorkload"):
        super().__init__(name, nice=0)
        self.workload = workload

    def body(self):
        """Thread behaviour (generator of CPU/scheduling requests)."""
        wl = self.workload
        while True:
            if not wl.accept_backlog:
                yield TaskBlock()
                continue
            wl.accept_backlog.popleft()
            yield GWork(_ACCEPT_SERVICE_NS)
            wl.accepted += 1


class _ListenerFlow:
    """NAPI-side SYN handling for the listening socket."""

    def __init__(self, netstack, flow_id: str, workload: "HttperfWorkload"):
        self.netstack = netstack
        self.flow_id = flow_id
        self.workload = workload
        netstack.register_flow(flow_id, self)

    def guest_rx_ops(self, packet, context):
        """NAPI-context guest ops for one received packet."""
        wl = self.workload
        cost = self.netstack.cost
        yield GWork(cost.guest_napi_pkt_ns + int(cost.guest_rx_per_byte_ns * packet.size))
        if len(wl.accept_backlog) >= wl.backlog_size:
            wl.syn_drops += 1
            return  # silent drop; the client's RTO fires
        yield GWork(_SYN_SERVICE_NS)
        wl.accept_backlog.append(packet.seq)
        for worker in wl.workers:
            worker.wake_task(context)
        synack = Packet(
            self.flow_id, "synack", _SYNACK_WIRE, dst=wl.client_addr, seq=packet.seq,
            created=packet.created,
        )
        ok = yield from self.netstack.driver.xmit_ops(synack, cost.guest_ack_tx_ns)
        if not ok:
            wl.synack_drops += 1


class HttperfWorkload:
    """Open-loop connection generator + guest listener/accept pipeline."""

    def __init__(
        self,
        testbed: "Testbed",
        vmset: "VmSetup",
        rate_per_sec: float,
        backlog_size: int = 32,
    ):
        self.testbed = testbed
        self.vmset = vmset
        self.rate = rate_per_sec
        self.interval_ns = max(1, int(round(1e9 / rate_per_sec)))
        self.backlog_size = backlog_size
        self.client_addr = testbed.external.name
        self.flow_id = f"{vmset.name}/httperf"
        self.accept_backlog: Deque[int] = deque()
        self.accepted = 0
        self.syn_drops = 0
        self.synack_drops = 0
        self.workers: List[_AcceptWorker] = []
        for i in range(vmset.vm.n_vcpus):
            worker = _AcceptWorker(f"httpd-{i}", self)
            vmset.guest_os.add_task(worker, i)
            self.workers.append(worker)
        _ListenerFlow(vmset.netstack, self.flow_id, self)
        testbed.external.register_flow(self.flow_id, self._on_synack)
        # client state
        self._next_conn = 0
        self._pending: Dict[int, dict] = {}
        self.connect_times_ns: List[int] = []
        self.failed = 0
        self._running = False
        self._rng = testbed.sim.rng.stream(f"httperf:{vmset.name}")

    # ---------------------------------------------------------------- client
    def start(self) -> None:
        """Start the workload's traffic/load generation."""
        self._running = True
        self.testbed.sim.schedule(self.interval_ns, self._launch_conn)

    def stop(self) -> None:
        """Stop generating traffic."""
        self._running = False

    def _launch_conn(self) -> None:
        if not self._running:
            return
        conn = self._next_conn
        self._next_conn += 1
        start = self.testbed.sim.now
        self._pending[conn] = {"start": start, "tries": 0}
        self._send_syn(conn)
        # Exponentially-spaced open-loop arrivals at the target rate.
        gap = max(1, int(self._rng.expovariate(1.0) * self.interval_ns))
        self.testbed.sim.schedule(gap, self._launch_conn)

    def _send_syn(self, conn: int) -> None:
        state = self._pending.get(conn)
        if state is None:
            return
        state["tries"] += 1
        pkt = Packet(
            self.flow_id, "syn", _SYN_WIRE, dst=self.vmset.name, seq=conn, created=state["start"]
        )
        self.testbed.external.send_now(pkt)
        self.testbed.sim.schedule(_SYN_RTO_NS * (2 ** (state["tries"] - 1)), self._retry, conn)

    def _retry(self, conn: int) -> None:
        state = self._pending.get(conn)
        if state is None:
            return  # established
        if state["tries"] >= _MAX_RETRIES:
            del self._pending[conn]
            self.failed += 1
            return
        self._send_syn(conn)

    def _on_synack(self, packet) -> None:
        state = self._pending.pop(packet.seq, None)
        if state is None:
            return  # duplicate
        self.connect_times_ns.append(self.testbed.sim.now - state["start"])

    # ------------------------------------------------------------- reporting
    def avg_connect_time_ms(self) -> float:
        """Mean TCP connect time in milliseconds (inf if none)."""
        if not self.connect_times_ns:
            return float("inf")
        return sum(self.connect_times_ns) / len(self.connect_times_ns) / 1e6
