"""Message-Signaled Interrupt messages and delivery modes.

Guest devices in KVM are PCI devices using MSI/MSI-X (paper Section V-C); a
virtual interrupt is described by an address/data pair that encodes the
destination vCPU set, the delivery mode and the vector.  ES2 intercepts
these messages at the routing layer and may rewrite the destination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import FrozenSet, Optional

__all__ = ["DeliveryMode", "MsiMessage", "DELIVERY_FIXED", "DELIVERY_LOWEST_PRIORITY"]


class DeliveryMode(enum.Enum):
    """MSI delivery modes relevant to the event path."""

    #: deliverable to exactly the addressed vCPU
    FIXED = "fixed"
    #: deliverable to any vCPU in the destination set — the mode Linux's
    #: ``apic_flat`` / ``apic_default`` drivers use for ≤8-CPU guests, and
    #: the property that makes ES2's redirection architecturally valid.
    LOWEST_PRIORITY = "lowest-priority"


# Hot code reads members through these module constants, as with
# repro.sched.thread's CpuMode.
DELIVERY_FIXED = DeliveryMode.FIXED
DELIVERY_LOWEST_PRIORITY = DeliveryMode.LOWEST_PRIORITY


@dataclass(frozen=True)
class MsiMessage:
    """An MSI/MSI-X interrupt message as seen by ``kvm_set_msi_irq``."""

    #: interrupt vector in the guest IDT
    vector: int
    #: effective destination (the guest's affinity choice)
    dest_vcpu: int
    #: delivery mode encoded in the address
    mode: DeliveryMode = DELIVERY_LOWEST_PRIORITY
    #: full logical destination set (vCPU indices allowed to receive it)
    dest_set: Optional[FrozenSet[int]] = None

    def allows(self, vcpu_index: int) -> bool:
        """True if this message may legally be delivered to ``vcpu_index``."""
        if self.mode is DELIVERY_FIXED:
            return vcpu_index == self.dest_vcpu
        if self.dest_set is None:
            return True
        return vcpu_index in self.dest_set

    def redirected_to(self, vcpu_index: int) -> "MsiMessage":
        """A copy of the message with its destination rewritten."""
        return replace(self, dest_vcpu=vcpu_index)
