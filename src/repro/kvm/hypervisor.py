"""The hypervisor: exit handling, interrupt delivery, guest timers."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import FeatureSet
from repro.errors import HypervisorError
from repro.hw.lapic import IPI_KIND_KICK, IPI_KIND_PI_NOTIFY, KICK_VECTOR, POSTED_INTR_VECTOR
from repro.hw.machine import Machine
from repro.kvm.exits import (
    EXIT_APIC_ACCESS,
    EXIT_EPT_VIOLATION,
    EXIT_EXTERNAL_INTERRUPT,
    EXIT_HLT,
    EXIT_IO_INSTRUCTION,
    EXIT_PENDING_INTERRUPT,
    ExitReason,
    ExitStats,
)
from repro.kvm.idt import LOCAL_TIMER_VECTOR
from repro.kvm.routing import IrqRouter
from repro.kvm.vcpu import Vcpu
from repro.kvm.vm import VirtualMachine
from repro.sched.thread import THREAD_NEW
from repro.units import MS

__all__ = ["Kvm"]


class Kvm:
    """The KVM model: owns VMs and the virtual-interrupt delivery paths."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.sim = machine.sim
        self.cost = machine.cost
        self.vms: List[VirtualMachine] = []
        self.router = IrqRouter(self)
        self.global_exit_stats = ExitStats()
        self.sim.obs.counters.register_fn(
            "kvm.exits", self.global_exit_stats.as_counts, reset_fn=self.global_exit_stats.reset
        )
        self._next_vm_id = 0
        self._teardown_listeners: List = []
        self._exit_cost: Dict[ExitReason, int] = {
            EXIT_IO_INSTRUCTION: self.cost.exit_handle_io_ns,
            EXIT_EXTERNAL_INTERRUPT: self.cost.exit_handle_ext_int_ns,
            EXIT_APIC_ACCESS: self.cost.exit_handle_apic_ns,
            EXIT_HLT: self.cost.exit_handle_hlt_ns,
            EXIT_EPT_VIOLATION: self.cost.exit_handle_other_ns,
            EXIT_PENDING_INTERRUPT: self.cost.exit_handle_other_ns,
        }

    # -------------------------------------------------------------- VM setup
    def create_vm(
        self,
        name: str,
        n_vcpus: int,
        features: FeatureSet,
        vcpu_pinning: Optional[List[Optional[int]]] = None,
    ) -> VirtualMachine:
        """Create and register a VM under this hypervisor."""
        vm = VirtualMachine(self, name, n_vcpus, features, vcpu_pinning)
        self.vms.append(vm)
        self.sim.obs.counters.register_fn(
            f"kvm.vm.{name}.exits", vm.exit_stats.as_counts, reset_fn=vm.exit_stats.reset
        )
        return vm

    def allocate_vm_id(self) -> int:
        """Hand out the next stable VM identifier (never reused)."""
        vm_id = self._next_vm_id
        self._next_vm_id += 1
        return vm_id

    def add_teardown_listener(self, fn) -> None:
        """``fn(vm)`` fires when a VM is destroyed (state-cleanup hook)."""
        self._teardown_listeners.append(fn)

    def destroy_vm(self, vm: VirtualMachine) -> None:
        """Tear a VM down: unregister it and let listeners drop per-VM state."""
        if vm in self.vms:
            self.vms.remove(vm)
        self.sim.obs.counters.unregister_prefix(f"kvm.vm.{vm.name}.")
        for fn in self._teardown_listeners:
            fn(vm)

    # ---------------------------------------------------------- exit handling
    def exit_handle_cost(self, reason: ExitReason) -> int:
        """Hypervisor software cost of handling one exit cause."""
        return self._exit_cost[reason]

    def handle_exit(self, vcpu: Vcpu, reason: ExitReason, payload=None) -> None:
        """Hypervisor-side effect of an exit (the cost was already charged)."""
        vcpu.vm.exit_stats.record(reason)
        self.global_exit_stats.record(reason)
        if reason is EXIT_IO_INSTRUCTION:
            if payload is None:
                raise HypervisorError("I/O-instruction exit without a target queue")
            payload.backend_notified()
        elif reason is EXIT_APIC_ACCESS:
            # Almost all APIC-access exits are EOI writes (Section VI-C).
            vcpu.apic.eoi()
        # External-interrupt, HLT and 'others' exits have no modelled side
        # effect beyond their handling cost.

    # ------------------------------------------------------ interrupt delivery
    def deliver_vcpu_interrupt(self, vcpu: Vcpu, vector: int) -> None:
        """Deliver a virtual interrupt to a specific vCPU.

        This is the per-vCPU half of delivery, shared by the MSI router and
        the LAPIC timer: the PI posting path when the VM runs with posted
        interrupts, or the emulated-APIC kick/inject path otherwise.
        """
        if self.sim.trace.enabled:
            self.sim.trace.record(
                self.sim.now,
                "irq-deliver",
                vcpu=vcpu.name,
                vector=vector,
                pi=vcpu.features.pi,
                running=vcpu.in_guest_mode_now,
            )
        if vcpu.features.pi:
            need_notify = vcpu.vapic.pi_desc.post(vector)
            if vcpu.in_guest_mode_now:
                if need_notify:
                    self.machine.post_ipi(vcpu.core, POSTED_INTR_VECTOR, IPI_KIND_PI_NOTIFY)
            elif vcpu._halted:
                vcpu.wake()
            # Otherwise: PIR bits wait for the next VM entry / sched-in — the
            # scheduling-latency gap ES2's redirection attacks.
        else:
            vcpu.apic.set_irq(vector)
            if vcpu.in_guest_mode_now:
                self.machine.post_ipi(vcpu.core, KICK_VECTOR, IPI_KIND_KICK)
            elif vcpu._halted:
                vcpu.wake()

    # ------------------------------------------------------------ guest timer
    def start_guest_timer(self, vm: VirtualMachine, period_ns: int = 4 * MS) -> None:
        """Arm the emulated per-vCPU LAPIC timer (Linux guest HZ=250).

        Timer interrupts are per-vCPU by construction and are delivered
        directly — never through MSI routing — so ES2's redirection cannot
        legally touch them (Section V-C).
        """
        for vcpu in vm.vcpus:
            # Stagger phases so sibling vCPUs don't tick in lockstep.
            phase = (period_ns * (vcpu.index + 1)) // (vm.n_vcpus + 1)
            self.sim.schedule(phase, self._timer_fire, vcpu, period_ns)

    def _timer_fire(self, vcpu: Vcpu, period_ns: int) -> None:
        if vcpu.guest_ctx is not None and vcpu.state is not THREAD_NEW:
            self.deliver_vcpu_interrupt(vcpu, LOCAL_TIMER_VECTOR)
        self.sim.schedule(period_ns, self._timer_fire, vcpu, period_ns)
