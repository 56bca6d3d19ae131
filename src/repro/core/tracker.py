"""ES2's vCPU scheduling-status tracker (Section IV-C / V-B).

The tracker is the "information channel to the vCPU scheduler": it
registers preemption notifiers (the only scheduling visibility KVM offers,
since CFS cannot distinguish vCPU threads from ordinary threads) and
maintains, per VM (keyed by the stable ``vm.vm_id``):

* an **online list** — vCPUs currently running on some core;
* an **offline list**, ordered by descheduling time — each descheduled vCPU
  is appended at the tail, so the *head* is the vCPU that has been offline
  longest and is therefore predicted to regain the CPU first.

In the real system these per-VM lists are touched concurrently from
several cores and must be lock-protected (Section V-B); the simulator is
single-threaded, so the lists model the post-synchronization state.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Set, TYPE_CHECKING

from repro.sched.notifier import PreemptionNotifier

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvm.hypervisor import Kvm
    from repro.kvm.vm import VirtualMachine

__all__ = ["VcpuScheduleTracker"]


class VcpuScheduleTracker:
    """Per-VM online/offline vCPU bookkeeping via preemption notifiers."""

    def __init__(self, kvm: "Kvm"):
        self.kvm = kvm
        self.sim = kvm.sim
        self._online: Dict[int, Set[int]] = {}
        self._offline: Dict[int, Deque[int]] = {}
        self._offline_listeners: List[Callable] = []
        self.transitions = 0
        self.sim.obs.counters.register("es2.tracker", self, ("transitions",))
        kvm.machine.notifiers.register(
            PreemptionNotifier(self._sched_in, self._sched_out, name="es2-tracker")
        )

    # --------------------------------------------------------------- wiring
    def _ensure(self, vm: "VirtualMachine") -> None:
        key = vm.vm_id
        if key not in self._online:
            self._online[key] = set()
            self._offline[key] = deque(range(vm.n_vcpus))

    def add_offline_listener(self, fn: Callable) -> None:
        """``fn(vm, vcpu_index)`` fires when a vCPU goes offline."""
        self._offline_listeners.append(fn)

    def forget_vm(self, vm: "VirtualMachine") -> None:
        """Drop the VM's online/offline lists (called at VM teardown)."""
        self._online.pop(vm.vm_id, None)
        self._offline.pop(vm.vm_id, None)

    # ------------------------------------------------------------ notifiers
    def _sched_in(self, thread, core) -> None:
        vm = thread.vm
        self._ensure(vm)
        key = vm.vm_id
        self.transitions += 1
        try:
            self._offline[key].remove(thread.index)
        except ValueError:
            pass
        self._online[key].add(thread.index)
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "sched-in", vm=vm.name, vcpu=thread.index)

    def _sched_out(self, thread, core) -> None:
        vm = thread.vm
        self._ensure(vm)
        key = vm.vm_id
        self.transitions += 1
        self._online[key].discard(thread.index)
        if thread.index not in self._offline[key]:
            self._offline[key].append(thread.index)
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "sched-out", vm=vm.name, vcpu=thread.index)
        for fn in self._offline_listeners:
            fn(vm, thread.index)

    # --------------------------------------------------------------- queries
    def online_indices(self, vm: "VirtualMachine") -> Set[int]:
        """Set of currently-online vCPU indices for the VM."""
        self._ensure(vm)
        return self._online[vm.vm_id]

    def offline_order(self, vm: "VirtualMachine") -> Deque[int]:
        """Offline vCPUs, head = offline the longest (next predicted online)."""
        self._ensure(vm)
        return self._offline[vm.vm_id]
