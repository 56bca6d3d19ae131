"""Guest driver for an assigned VF (ixgbevf-style).

The VF driver is the virtio-net driver with a doorbell: the interrupt
setup, ISR, NAPI and the TX ring's back-pressure are inherited unchanged,
so the guest netstack and all flows work on top of it as they do on
virtio.  The only behavioural difference is the TX notify: publishing a
descriptor and ringing the doorbell is a direct device access, so **no
I/O-instruction VM exit ever happens** (the defining property of device
assignment).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.guest.ops import GWork
from repro.virtio.frontend import VirtioNetDriver

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.os import GuestOS
    from repro.guest.tasks import GuestTask
    from repro.sriov.vf import VfDevice

__all__ = ["VfDriver"]

#: MMIO doorbell write (direct, posted)
_DOORBELL_NS = 120


class VfDriver(VirtioNetDriver):
    """Guest-side driver for one assigned Virtual Function."""

    def __init__(self, guest_os: "GuestOS", device: "VfDevice", irq_vcpu: int = 0):
        super().__init__(guest_os, device, irq_vcpu=irq_vcpu)
        #: the TX notify op is the doorbell's MMIO write, not a queue kick
        self._tx_notify = GWork(_DOORBELL_NS)
        self.doorbells = 0

    def xmit_ops(self, packet, tx_cost_ns: int, task: Optional["GuestTask"] = None):
        """Publish + doorbell: all direct device access, exit-free."""
        ok = yield from super().xmit_ops(packet, tx_cost_ns, task)
        if ok:
            self.doorbells += 1
            self.device.doorbell()
        return ok
