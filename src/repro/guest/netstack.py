"""The guest's network stack: flow registry and RX dispatch.

Flows (windowed TCP streams, UDP streams, request/response services)
register here by flow id; the NAPI receive path runs each packet's flow's
``guest_rx_ops`` generator in softirq context, on the vCPU that took the
interrupt.  Flows transmit through the driver's ``xmit_ops``, which owns
the TX ring and its back-pressure.
"""

from __future__ import annotations

from typing import Callable, Dict, TYPE_CHECKING

from repro.errors import GuestError
from repro.guest.ops import GWork

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.os import GuestOS
    from repro.virtio.frontend import VirtioNetDriver

__all__ = ["GuestNetstack"]

#: cost of demuxing + dropping a packet with no socket
_DROP_NS = 300


class GuestNetstack:
    """Socket-layer glue between guest flows and the NIC driver."""

    def __init__(self, os: "GuestOS", driver: "VirtioNetDriver"):
        self.os = os
        self.driver = driver
        self.sim = os.vm.machine.sim
        self.cost = os.vm.machine.cost
        driver.rx_sink = self.rx_ops
        #: flow id -> the flow's bound ``guest_rx_ops``, looked up once at
        #: registration instead of on every delivered packet
        self._rx_handlers: Dict[str, Callable] = {}
        self.rx_dropped = 0

    def register_flow(self, flow_id: str, flow) -> None:
        """Register a flow (anything with ``guest_rx_ops``) under its flow id."""
        if flow_id in self._rx_handlers:
            raise GuestError(f"flow {flow_id} already registered")
        self._rx_handlers[flow_id] = flow.guest_rx_ops

    def rx_ops(self, packet, context):
        """The ops generator for one received packet: its flow's
        ``guest_rx_ops``, or a drop when no flow owns it."""
        handler = self._rx_handlers.get(packet.flow)
        if handler is not None:
            return handler(packet, context)
        return self._drop_ops(packet)

    def _drop_ops(self, packet):
        self.rx_dropped += 1
        if packet.ctx is not None:
            sp = self.sim.obs.spans
            if sp is not None:
                sp.drop(self.sim.now, packet.ctx, "no_flow", flow=packet.flow)
        yield GWork(_DROP_NS)
