"""ES2's intelligent interrupt redirection (Section IV-C / V-C).

Target selection, exactly as the paper specifies:

1. Only *device* interrupts are eligible (vector-range discrimination) and
   only in lowest-priority delivery mode, where any vCPU in the destination
   set may legally receive the interrupt.
2. If online vCPUs exist, pick the one with the lightest interrupt workload
   (fewest processed interrupts) — then *stick* to it for subsequent
   interrupts until it is descheduled, for cache affinity.
3. If no vCPU is online, predict: the head of the descheduling-ordered
   offline list (offline the longest ⇒ most likely to run again soonest).
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.config import FeatureSet
from repro.hw.msi import DELIVERY_LOWEST_PRIORITY, MsiMessage
from repro.kvm.idt import is_device_vector

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tracker import VcpuScheduleTracker
    from repro.kvm.vm import VirtualMachine

__all__ = ["InterruptRedirector"]


class InterruptRedirector:
    """Chooses the most appropriate destination vCPU for device interrupts."""

    def __init__(self, tracker: "VcpuScheduleTracker"):
        self.tracker = tracker
        tracker.add_offline_listener(self._on_vcpu_offline)
        #: per-VM sticky target, keyed by the stable ``vm.vm_id`` (valid
        #: while it stays online).  ``id(vm)`` is unusable as a key: CPython
        #: reuses it after GC, aliasing a dead VM's state with a new one.
        self._sticky: Dict[int, int] = {}
        #: per-(vm_id, vCPU) processed-interrupt counters (workload balancing)
        self._irq_load: Dict[tuple, int] = {}
        self.redirects_online = 0
        self.redirects_predicted = 0
        self.ineligible = 0
        tracker.sim.obs.counters.register(
            "es2.redirector", self, ("redirects_online", "redirects_predicted", "ineligible")
        )

    # ------------------------------------------------------------- selection
    def select(self, vm: "VirtualMachine", msg: MsiMessage) -> Optional[int]:
        """The ``kvm_set_msi_irq`` hook: new destination or None (keep)."""
        features = vm.features
        if not is_device_vector(msg.vector) or msg.mode is not DELIVERY_LOWEST_PRIORITY:
            self.ineligible += 1
            return None
        online = [i for i in self.tracker.online_indices(vm) if msg.allows(i)]
        if online:
            target = self._pick_online(vm, online, features)
            self.redirects_online += 1
        else:
            if not features.redirect_offline_prediction:
                return None
            target = self._pick_offline(vm, msg)
            if target is None:
                return None
            self.redirects_predicted += 1
        self._irq_load[(vm.vm_id, target)] = self._irq_load.get((vm.vm_id, target), 0) + 1
        return target

    def _pick_online(self, vm, online, features: FeatureSet) -> int:
        key = vm.vm_id
        sticky = self._sticky.get(key)
        if features.redirect_sticky and sticky in online:
            return sticky
        target = min(online, key=lambda i: (self._irq_load.get((key, i), 0), i))
        self._sticky[key] = target
        return target

    def _pick_offline(self, vm, msg: MsiMessage) -> Optional[int]:
        for index in self.tracker.offline_order(vm):
            if msg.allows(index):
                return index
        return None

    # -------------------------------------------------------------- stickiness
    def _on_vcpu_offline(self, vm, vcpu_index: int) -> None:
        key = vm.vm_id
        if self._sticky.get(key) == vcpu_index:
            del self._sticky[key]

    # -------------------------------------------------------------- lifecycle
    def forget_vm(self, vm) -> None:
        """Drop all per-VM state (called when the VM is torn down)."""
        key = vm.vm_id
        self._sticky.pop(key, None)
        for load_key in [k for k in self._irq_load if k[0] == key]:
            del self._irq_load[load_key]

    # ------------------------------------------------------------- inspection
    def irq_load(self, vm, vcpu_index: int) -> int:
        """Processed-interrupt count recorded for one vCPU."""
        return self._irq_load.get((vm.vm_id, vcpu_index), 0)
