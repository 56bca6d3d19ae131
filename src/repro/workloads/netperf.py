"""Netperf workloads: TCP_STREAM / UDP_STREAM, send and receive sides.

Each workload attaches one or more stream threads to the tested VM (one
per vCPU when ``n_streams`` matches the vCPU count, as in the paper's
"four concurrent netperf threads ... to fully load the four vCPUs") plus
the matching external endpoints, and offers throughput readout helpers.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.guest.tasks import GuestTask
from repro.net.packet import MSS
from repro.net.tcp import (
    ExternalTcpSink,
    ExternalTcpSource,
    GuestTcpRxFlow,
    GuestTcpTxFlow,
    TcpRecvTask,
)
from repro.net.udp import (
    ExternalUdpSink,
    ExternalUdpSource,
    GuestUdpRxFlow,
    GuestUdpTxFlow,
    UdpRecvTask,
)
from repro.units import throughput_gbps

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.testbed import Testbed, VmSetup

__all__ = ["NetperfTcpSend", "NetperfUdpSend", "NetperfTcpReceive", "NetperfUdpReceive"]


class _StreamTask(GuestTask):
    """A netperf stream thread: drives one flow's sender loop."""

    def __init__(self, name: str, flow):
        super().__init__(name, nice=0)
        self.flow = flow
        flow.attach_task(self)

    def body(self):
        """The flow's sender generator itself: each guest op reaches the
        vCPU one generator level sooner than through ``yield from``."""
        return self.flow.sender_ops()


class _SendWorkload:
    """Common scaffolding for guest-sending stream workloads."""

    def __init__(self, testbed: "Testbed", vmset: "VmSetup", n_streams: int):
        if n_streams <= 0:
            raise WorkloadError("need at least one stream")
        self.testbed = testbed
        self.vmset = vmset
        self.n_streams = n_streams
        self.flows: List[object] = []
        self.sinks: List[object] = []
        self._mark_bytes = 0
        self._mark_time = 0

    # ------------------------------------------------------------ measuring
    def _sink_bytes(self) -> int:
        return sum(s.payload_bytes for s in self.sinks)

    def mark(self) -> None:
        """Start the measurement window (call after warm-up)."""
        self._mark_bytes = self._sink_bytes()
        self._mark_time = self.testbed.sim.now

    def throughput_gbps(self) -> float:
        """Receiver-side goodput since :meth:`mark`."""
        return throughput_gbps(
            self._sink_bytes() - self._mark_bytes, self.testbed.sim.now - self._mark_time
        )


class NetperfTcpSend(_SendWorkload):
    """Guest sends TCP streams to the external server (Fig. 5a / 6a)."""

    def __init__(
        self,
        testbed: "Testbed",
        vmset: "VmSetup",
        n_streams: int = 1,
        payload_size: int = MSS,
        window_segments: int = 64,
        window_bytes: int = None,
    ):
        super().__init__(testbed, vmset, n_streams)
        if window_bytes is not None:
            window_segments = max(4, window_bytes // payload_size)
        for i in range(n_streams):
            flow_id = f"{vmset.name}/tcp-tx-{i}"
            flow = GuestTcpTxFlow(
                vmset.netstack,
                flow_id,
                dst=testbed.external.name,
                payload_size=payload_size,
                window_segments=window_segments,
            )
            sink = ExternalTcpSink(testbed.external, flow_id, guest_addr=vmset.name)
            task = _StreamTask(f"netperf-tcp-{i}", flow)
            vmset.guest_os.add_task(task, i % vmset.vm.n_vcpus)
            self.flows.append(flow)
            self.sinks.append(sink)


class NetperfUdpSend(_SendWorkload):
    """Guest sends UDP streams to the external server (Fig. 4a / 5a)."""

    def __init__(
        self,
        testbed: "Testbed",
        vmset: "VmSetup",
        n_streams: int = 1,
        payload_size: int = 256,
    ):
        super().__init__(testbed, vmset, n_streams)
        for i in range(n_streams):
            flow_id = f"{vmset.name}/udp-tx-{i}"
            flow = GuestUdpTxFlow(
                vmset.netstack, flow_id, dst=testbed.external.name, payload_size=payload_size
            )
            sink = ExternalUdpSink(testbed.external, flow_id)
            task = _StreamTask(f"netperf-udp-{i}", flow)
            vmset.guest_os.add_task(task, i % vmset.vm.n_vcpus)
            self.flows.append(flow)
            self.sinks.append(sink)


class _ReceiveWorkload:
    """Common scaffolding for guest-receiving stream workloads."""

    def __init__(self, testbed: "Testbed", vmset: "VmSetup"):
        self.testbed = testbed
        self.vmset = vmset
        self.flows: List[object] = []
        self.sources: List[object] = []
        self._mark_bytes = 0
        self._mark_time = 0

    def start(self) -> None:
        """Start the workload's traffic/load generation."""
        for src in self.sources:
            src.start()

    def _flow_bytes(self) -> int:
        return sum(f.payload_bytes for f in self.flows)

    def mark(self) -> None:
        """Start (or restart) the measurement window at the current time."""
        self._mark_bytes = self._flow_bytes()
        self._mark_time = self.testbed.sim.now

    def throughput_gbps(self) -> float:
        """Guest-side goodput since :meth:`mark`."""
        return throughput_gbps(
            self._flow_bytes() - self._mark_bytes, self.testbed.sim.now - self._mark_time
        )


class NetperfTcpReceive(_ReceiveWorkload):
    """Guest receives TCP streams from the external server (Fig. 5b / 6b)."""

    def __init__(
        self,
        testbed: "Testbed",
        vmset: "VmSetup",
        n_streams: int = 1,
        payload_size: int = MSS,
        window_segments: int = 64,
        window_bytes: int = None,
    ):
        super().__init__(testbed, vmset)
        if window_bytes is not None:
            window_segments = max(4, window_bytes // payload_size)
        for i in range(n_streams):
            flow_id = f"{vmset.name}/tcp-rx-{i}"
            flow = GuestTcpRxFlow(vmset.netstack, flow_id, src=testbed.external.name)
            recv_task = TcpRecvTask(f"netserver-tcp-{i}", flow)
            vmset.guest_os.add_task(recv_task, i % vmset.vm.n_vcpus)
            source = ExternalTcpSource(
                testbed.external,
                flow_id,
                guest_addr=vmset.name,
                payload_size=payload_size,
                window_segments=window_segments,
            )
            self.flows.append(flow)
            self.sources.append(source)


class NetperfUdpReceive(_ReceiveWorkload):
    """Guest receives UDP streams from the external server (Fig. 5b)."""

    def __init__(
        self,
        testbed: "Testbed",
        vmset: "VmSetup",
        n_streams: int = 1,
        payload_size: int = 1024,
        rate_pps: float = 200_000.0,
    ):
        super().__init__(testbed, vmset)
        for i in range(n_streams):
            flow_id = f"{vmset.name}/udp-rx-{i}"
            flow = GuestUdpRxFlow(vmset.netstack, flow_id)
            recv_task = UdpRecvTask(f"netserver-udp-{i}", flow)
            vmset.guest_os.add_task(recv_task, i % vmset.vm.n_vcpus)
            source = ExternalUdpSource(
                testbed.external,
                flow_id,
                guest_addr=vmset.name,
                payload_size=payload_size,
                rate_pps=rate_pps / n_streams,
            )
            self.flows.append(flow)
            self.sources.append(source)
