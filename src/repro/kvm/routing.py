"""MSI interrupt routing — the ``kvm_set_msi_irq`` interception point.

Devices raise interrupts by signalling an MSI route (their irqfd).  The
router resolves the route to an :class:`~repro.hw.msi.MsiMessage`, lets an
installed interceptor (ES2's intelligent redirection) rewrite the
destination, validates the rewrite against the message's delivery mode, and
hands the result to the per-vCPU delivery path.

An interceptor that returns an illegal destination — a vCPU outside the
message's destination set, or any rewrite of a FIXED-mode message — is a
bug of the kind the paper warns about ("redirecting them to other vCPUs may
cause the guest OS to crash"); the router raises :class:`GuestCrash` so the
test suite can prove ES2's filtering prevents it.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import GuestCrash, HypervisorError
from repro.hw.msi import DELIVERY_FIXED, MsiMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvm.hypervisor import Kvm
    from repro.kvm.vm import VirtualMachine

__all__ = ["IrqRouter"]

#: An interceptor maps (vm, msg) -> replacement vCPU index or None to keep
#: the affinity destination.
Interceptor = Callable[["VirtualMachine", MsiMessage], Optional[int]]


class IrqRouter:
    """Resolves MSI routes and applies the redirection hook."""

    def __init__(self, kvm: "Kvm"):
        self.kvm = kvm
        self._interceptor: Optional[Interceptor] = None
        self.delivered = 0
        self.redirected = 0
        kvm.sim.obs.counters.register("kvm.router", self, ("delivered", "redirected"))

    def set_interceptor(self, fn: Optional[Interceptor]) -> None:
        """Install (or remove) the ``kvm_set_msi_irq`` interceptor."""
        self._interceptor = fn

    def signal(self, vm: "VirtualMachine", route: int) -> None:
        """A device signalled its irqfd: deliver the routed interrupt."""
        try:
            msg = vm.msi_routes[route]
        except KeyError:
            raise HypervisorError(f"{vm.name}: unknown MSI route {route}") from None
        self.deliver_msi(vm, msg)

    def deliver_msi(self, vm: "VirtualMachine", msg: MsiMessage) -> None:
        """Resolve, (maybe) redirect, validate and deliver an MSI message."""
        target_index = msg.dest_vcpu
        if self._interceptor is not None:
            override = self._interceptor(vm, msg)
            if override is not None and override != msg.dest_vcpu:
                self._validate_redirect(vm, msg, override)
                target_index = override
                self.redirected += 1
                sim = self.kvm.sim
                if sim.trace.enabled:
                    sim.trace.record(
                        sim.now, "irq-redirect", vm=vm.name, vector=msg.vector,
                        orig=msg.dest_vcpu, target=target_index,
                    )
        if not 0 <= target_index < vm.n_vcpus:
            raise HypervisorError(f"{vm.name}: MSI destination vCPU {target_index} out of range")
        self.delivered += 1
        sp = self.kvm.sim.obs.spans
        if sp is not None:
            sp.irq_mark(
                self.kvm.sim.now, vm.vm_id, msg.vector, "irq_route",
                redirected=(target_index != msg.dest_vcpu),
                orig=msg.dest_vcpu, target=target_index,
            )
        self.kvm.deliver_vcpu_interrupt(vm.vcpus[target_index], msg.vector)

    @staticmethod
    def _validate_redirect(vm: "VirtualMachine", msg: MsiMessage, target: int) -> None:
        if msg.mode is DELIVERY_FIXED:
            raise GuestCrash(
                f"{vm.name}: fixed-delivery vector {msg.vector:#x} redirected to "
                f"vCPU {target}; the guest would lose or misdeliver it"
            )
        if not msg.allows(target):
            raise GuestCrash(
                f"{vm.name}: vector {msg.vector:#x} redirected outside its "
                f"destination set (vCPU {target})"
            )
