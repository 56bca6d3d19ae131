"""Physical NIC and point-to-point link model.

The paper's testbed is two servers connected back-to-back with 40GbE NICs.
The link model enforces per-direction serialization (store-and-forward at
the line rate) plus a fixed propagation/NIC-pipeline latency.  Endpoints
register a receive callback; anything with such a callback (a
:class:`~repro.hw.machine.Machine` NIC or a bare-metal traffic generator)
can terminate a link.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import HardwareError
from repro.units import transmit_time_ns, us

__all__ = ["Nic", "LinkModel", "Link"]


class Nic:
    """A network interface: a named attachment point with an RX handler."""

    def __init__(self, sim, name: str):
        self.sim = sim
        self.name = name
        self.link: Optional["Link"] = None
        self._rx_handler: Optional[Callable] = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0

    def set_rx_handler(self, fn: Callable) -> None:
        """Install the function called with each received packet."""
        self._rx_handler = fn

    def send(self, packet) -> None:
        """Transmit one packet to the peer across the attached link."""
        if self.link is None:
            raise HardwareError(f"NIC {self.name} has no link attached")
        self.tx_packets += 1
        self.tx_bytes += packet.size
        self.link.transmit(self, packet)

    def receive(self, packet) -> None:
        """Deliver an inbound packet to the registered RX handler."""
        self.rx_packets += 1
        self.rx_bytes += packet.size
        if self._rx_handler is None:
            raise HardwareError(f"NIC {self.name} received a packet with no RX handler")
        self._rx_handler(packet)


class LinkModel:
    """Rate/propagation/busy-until accounting shared by every link kind.

    A link direction is a store-and-forward serializer at the line rate:
    a packet starts serializing when the transmitter frees up (never
    before now), occupies the wire for its serialization time, and lands
    ``propagation_ns`` after the last bit left.  Subclasses decide where
    "lands" is — the in-process peer NIC (:class:`Link`) or another
    shard's host (:class:`repro.cluster.link.CrossShardLink`).
    """

    def __init__(self, sim, rate_gbps: float = 40.0, propagation_ns: int = us(1)):
        if rate_gbps <= 0:
            raise HardwareError("link rate must be positive")
        if propagation_ns < 0:
            raise HardwareError("link propagation must be non-negative")
        self.sim = sim
        self.rate_gbps = rate_gbps
        self.propagation_ns = propagation_ns
        # Per-direction time at which the transmitter becomes free.
        self._busy_until = {}
        #: per-packet-size serialization delay; flows repeat a handful of
        #: sizes, so the float divide-and-round is paid once per size
        self._delay_memo = {}

    def _attach_end(self, nic: Nic) -> None:
        """Register one transmitting NIC and claim its ``link`` slot."""
        nic.link = self
        self._busy_until[nic] = 0

    def serialize(self, src: Nic, size: int) -> int:
        """Account one transmission out of ``src``; returns the finish time.

        The returned instant is when the last bit leaves the transmitter;
        arrival at the far end is ``finish + propagation_ns``.
        """
        now = self.sim.now
        busy = self._busy_until[src]
        start = now if now > busy else busy
        delay = self._delay_memo.get(size)
        if delay is None:
            delay = self._delay_memo[size] = transmit_time_ns(size, self.rate_gbps)
        finish = start + delay
        self._busy_until[src] = finish
        return finish

    def transmit(self, src: Nic, packet) -> None:
        """Serialize ``packet`` out of ``src`` and deliver it."""
        raise NotImplementedError

    def queued_delay(self, src: Nic) -> int:
        """Current serialization backlog out of ``src`` (ns)."""
        return max(0, self._busy_until[src] - self.sim.now)


class Link(LinkModel):
    """Full-duplex point-to-point link between exactly two NICs."""

    def __init__(self, sim, a: Nic, b: Nic, rate_gbps: float = 40.0, propagation_ns: int = us(1)):
        super().__init__(sim, rate_gbps=rate_gbps, propagation_ns=propagation_ns)
        self.ends = (a, b)
        self._attach_end(a)
        self._attach_end(b)
        # Pre-bound per direction: transmit schedules the peer's receive on
        # every packet, and rebinding the method per call allocates.
        self._deliver_to_peer = {a: b.receive, b: a.receive}

    def transmit(self, src: Nic, packet) -> None:
        """Serialize ``packet`` out of ``src`` and deliver it to the peer."""
        finish = self.serialize(src, packet.size)
        self.sim.at(finish + self.propagation_ns, self._deliver_to_peer[src], packet)
