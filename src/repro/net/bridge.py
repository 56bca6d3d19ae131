"""Host-side bridge: demultiplexes wire packets to per-VM tap devices."""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.errors import HardwareError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.machine import Machine
    from repro.virtio.device import VirtioNetDevice

__all__ = ["HostBridge"]


class HostBridge:
    """Maps destination addresses to virtio-net devices (the host's bridge
    + tap wiring)."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self._devices: Dict[str, "VirtioNetDevice"] = {}
        machine.nic.set_rx_handler(self._on_wire_rx)
        self.unroutable = 0

    def attach(self, addr: str, device: "VirtioNetDevice") -> None:
        """Route wire packets addressed to ``addr`` to ``device`` (a virtio-net
        tap or an assigned VF; anything with ``enqueue_from_wire``)."""
        if addr in self._devices:
            raise HardwareError(f"address {addr} already attached to the bridge")
        self._devices[addr] = device

    def _on_wire_rx(self, packet) -> None:
        device = self._devices.get(packet.dst)
        if device is None:
            self.unroutable += 1
            if packet.ctx is not None:
                sim = self.machine.sim
                sp = sim.obs.spans
                if sp is not None:
                    sp.drop(sim.now, packet.ctx, "unroutable", dst=packet.dst)
            return
        device.enqueue_from_wire(packet)
