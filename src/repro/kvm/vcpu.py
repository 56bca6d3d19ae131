"""The vCPU: a host thread running the guest-execution state machine.

This is where the paper's Fig. 1 lives.  All VM exits are inline round
trips (exit transition → hypervisor handling → VM entry) inside the vCPU
thread's timeline, so time-in-guest accounting and exit-rate statistics
fall out of the same mechanism.

Interrupt-delivery channels
---------------------------
* **Baseline (emulated APIC)**: the hypervisor latches the vector in the
  emulated IRR and kicks the vCPU's core with a reschedule IPI; the IPI
  forces an External-Interrupt exit, and the vector is injected at the next
  VM entry.  The guest's EOI write traps as an APIC-access exit.
* **PI (vAPIC)**: the vector is posted into the PI descriptor; if the vCPU
  is in guest mode the notification IPI triggers a hardware PIR→vIRR sync
  and delivery *without any exit*; otherwise the bits wait for the next VM
  entry (or sched-in).  EOI is virtualized.

Physical events (IPIs, forced exits) can interrupt any guest CPU segment;
virtual interrupt *delivery* additionally respects the guest's IRQ-enable
state, which is off inside hard-IRQ handlers.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import GuestError, HypervisorError
from repro.guest.ops import GHalt, GKick, GWork
from repro.hw.lapic import IPI_KIND_KICK, IPI_KIND_PI_NOTIFY
from repro.kvm.apic_emul import EmulatedLapic
from repro.kvm.exits import (
    EXIT_APIC_ACCESS,
    EXIT_EPT_VIOLATION,
    EXIT_EXTERNAL_INTERRUPT,
    EXIT_HLT,
    EXIT_IO_INSTRUCTION,
    EXIT_PENDING_INTERRUPT,
    ExitReason,
)
from repro.kvm.vapic import VApicPage
from repro.sched.thread import MODE_GUEST, MODE_HOST, THREAD_RUNNING, Block, Consume, Thread

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvm.vm import VirtualMachine

__all__ = ["Vcpu"]


class Vcpu(Thread):
    """One virtual CPU of a VM, scheduled by host CFS as an ordinary thread."""

    is_vcpu = True

    def __init__(self, vm: "VirtualMachine", index: int, pinned_core: Optional[int] = None):
        super().__init__(vm.machine, f"{vm.name}/vcpu{index}", pinned_core=pinned_core)
        self.vm = vm
        self.index = index
        self.kvm = vm.kvm
        self.features = vm.features
        self.cost = vm.machine.cost
        self.apic = EmulatedLapic(self.name)
        self.vapic = VApicPage(self.name)
        #: installed by the GuestOS when the VM boots
        self.guest_ctx = None
        #: logically executing guest code (between VM entry and VM exit)
        self.in_guest = False
        #: guest virtual IF: off inside hard-IRQ handlers
        self.irqs_enabled = True
        self.entries = 0
        self.interrupts_handled = 0
        self._injected_vector: Optional[int] = None
        self._forced_exit: Optional[ExitReason] = None
        self._guest_wake_pending = False
        self._in_softirq = False
        self._halted = False
        self._others_rng = self.sim.rng.stream(f"others:{self.name}")
        self._others_budget = self._sample_others_budget()
        self.sim.obs.counters.register(
            f"kvm.vm.{vm.name}.vcpu{index}", self, ("entries", "interrupts_handled")
        )

    # ------------------------------------------------------------ properties
    @property
    def in_guest_mode_now(self) -> bool:
        """Physically executing guest code on a core at this instant."""
        return self.state is THREAD_RUNNING and self.in_guest

    # ------------------------------------------------------------- main body
    def body(self):
        """Thread behaviour (generator of CPU/scheduling requests)."""
        if self.guest_ctx is None:
            raise HypervisorError(f"{self.name}: no guest context installed")
        yield from self._vm_entry()
        next_op = self.guest_ctx.next_op
        # True when the guest work just run ended on a vector check that
        # found nothing: with no simulated time since, the checks below
        # would find nothing either.
        checked = False
        while True:
            if not checked:
                vec = self._take_vector()
                if vec is not None:
                    yield from self._run_interrupt(vec)
                    continue
                if self._forced_exit is not None:
                    yield from self._vm_exit_entry(self._forced_exit)
                    continue
            op = next_op()
            cls = type(op)
            if cls is GWork:
                checked = yield from self._guest_consume(op.ns)
            elif cls is GKick:
                # The notify write, then the kick.  A suppressed kick passes
                # no simulated time and posts nothing, so the write's last
                # check still holds; an exit round trip voids it.
                checked = yield from self._guest_consume(self.cost.guest_kick_ns)
                if self._do_kick(op.queue):
                    checked = False
                    yield from self._vm_exit_entry(EXIT_IO_INSTRUCTION, op.queue)
            elif cls is GHalt:
                checked = False
                yield from self._halt()
            else:
                raise GuestError(f"{self.name}: unknown guest op {op!r}")

    # -------------------------------------------------------- exits / entries
    def _vm_exit(self, reason: ExitReason, payload=None):
        self.in_guest = False
        self._forced_exit = None
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "vm-exit", vcpu=self.name, reason=reason.value)
        cost = self.cost.vm_exit_transition_ns + self.kvm.exit_handle_cost(reason)
        yield Consume(cost, MODE_HOST)
        self.kvm.handle_exit(self, reason, payload)

    def _vm_entry(self):
        entry_cost = self.cost.vm_entry_ns
        will_inject = not self.features.pi and self.apic.can_inject()
        if will_inject:
            entry_cost += self.cost.inject_ns
        yield Consume(entry_cost, MODE_HOST)
        if self.features.pi:
            self.vapic.sync_pir_to_virr()
        elif self.apic.can_inject() and self._injected_vector is None:
            self._injected_vector = self.apic.inject()
        self.entries += 1
        self.in_guest = True

    def _vm_exit_entry(self, reason: ExitReason, payload=None):
        """A full inline exit → handle → entry round trip."""
        yield from self._vm_exit(reason, payload)
        yield from self._vm_entry()

    # ------------------------------------------------------- guest execution
    def _guest_consume(self, ns: int):
        """Burn guest CPU time; service interrupts/forced exits as they land.

        Returns True when the last act was a vector check that found
        nothing.  It follows the forced-exit test, and ``_forced_exit`` is
        None by then: the test either found it None or ran an exit round
        trip, which clears it, and nothing sets it in root mode
        (:meth:`on_host_ipi`, :meth:`on_sched_in`).  Returns False for
        zero work and when the last check found a vector to serve.
        """
        if ns <= 0:
            return False
        remaining = ns
        while True:
            consumed = yield Consume(remaining, MODE_GUEST, True)
            remaining -= consumed
            self._others_budget -= consumed
            while self._others_budget <= 0:
                self._others_budget += self._sample_others_budget()
                yield from self._vm_exit_entry(self._sample_others_reason())
            if self._forced_exit is not None:
                yield from self._vm_exit_entry(self._forced_exit)
            vec = self._take_vector()
            if vec is not None:
                yield from self._run_interrupt(vec)
            if remaining <= 0:
                return vec is None

    def _do_kick(self, queue) -> bool:
        """virtqueue_kick after its notify write: True when the kick exits.

        A plain method, so a suppressed kick costs no generator; the
        caller runs the I/O-instruction round trip when this returns True.
        """
        if queue.guest_should_kick():
            queue.note_kick(True)
            return True
        queue.note_kick(False)
        return False

    def _halt(self):
        yield from self._vm_exit(EXIT_HLT)
        self._halted = True
        while not self._wake_condition():
            yield Block()
        self._halted = False
        yield from self._vm_entry()

    def _wake_condition(self) -> bool:
        if self._guest_wake_pending:
            self._guest_wake_pending = False
            return True
        if self._forced_exit is not None:
            return True
        if self.features.pi:
            return self.vapic.any_pending()
        return self.apic.has_pending() or self._injected_vector is not None

    # ------------------------------------------------------ interrupt window
    def _take_vector(self) -> Optional[int]:
        if not self.irqs_enabled:
            return None
        if self.features.pi:
            vapic = self.vapic
            if vapic.virr and vapic.has_deliverable():
                return vapic.deliver()
            return None
        vec, self._injected_vector = self._injected_vector, None
        return vec

    def _run_interrupt(self, vector: int):
        """Hard-IRQ handler + EOI + any raised softirq work."""
        self.interrupts_handled += 1
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, "irq-handled", vcpu=self.name, vector=vector)
        sp = self.sim.obs.spans
        if sp is not None:
            # The gap since irq_route is the injection wait: TIG while the
            # target vCPU was descheduled, plus the entry/IPI machinery.
            sp.irq_mark(self.sim.now, self.vm.vm_id, vector, "irq_inject", vcpu=self.index)
        self.irqs_enabled = False
        yield from self._guest_consume(self.cost.guest_irq_entry_ns)
        yield from self._run_ops(self.guest_ctx.irq_handler_ops(vector))
        # End of interrupt: virtualized under PI, an APIC-access trap without.
        yield from self._guest_consume(self.cost.guest_eoi_ns)
        if self.features.pi:
            self.vapic.eoi()
        else:
            yield from self._vm_exit_entry(EXIT_APIC_ACCESS)
        self.irqs_enabled = True
        if not self._in_softirq:
            self._in_softirq = True
            try:
                while True:
                    ops = self.guest_ctx.take_softirq_ops()
                    if ops is None:
                        break
                    yield from self._run_ops(ops)
            finally:
                self._in_softirq = False

    def _run_ops(self, ops):
        for op in ops:
            cls = type(op)
            if cls is GWork:
                yield from self._guest_consume(op.ns)
            elif cls is GKick:
                yield from self._guest_consume(self.cost.guest_kick_ns)
                if self._do_kick(op.queue):
                    yield from self._vm_exit_entry(EXIT_IO_INSTRUCTION, op.queue)
            else:
                raise GuestError(f"{self.name}: illegal op in IRQ context: {op!r}")

    # ------------------------------------------------------- host-side hooks
    def on_host_ipi(self, vector: int, kind: str) -> None:
        """A physical IPI landed on the core this vCPU occupies."""
        if not self.in_guest:
            return  # in root mode: the host consumes the IPI, no exit
        if kind == IPI_KIND_PI_NOTIFY:
            # Hardware processes the PI descriptor of the *current* vCPU.
            self.vapic.sync_pir_to_virr()
            self.poke()
        elif kind == IPI_KIND_KICK:
            self._forced_exit = EXIT_EXTERNAL_INTERRUPT
            self.poke()

    def on_sched_in(self, core) -> None:
        """KVM ``vcpu_load``: sync interrupt state deferred while descheduled."""
        if not self.in_guest:
            return
        if self.features.pi:
            if self.vapic.pi_desc.has_pending():
                self.vapic.sync_pir_to_virr()
                self._poke_pending = True
        else:
            if self.apic.can_inject() and self._injected_vector is None:
                # Real KVM injects after the exit caused by the preemption
                # itself; model it as a delivery exit at resumption.
                if self._forced_exit is None:
                    self._forced_exit = EXIT_EXTERNAL_INTERRUPT
                self._poke_pending = True

    def kick_guest(self) -> None:
        """Guest-internal wakeup (a task became runnable): leave HLT."""
        self._guest_wake_pending = True
        if self._halted:
            self.wake()

    # ---------------------------------------------------------------- others
    def _sample_others_budget(self) -> int:
        mean = self.machine.cost.others_exit_mean_interval_ns
        if self.features.pi:
            mean = int(mean / self.machine.cost.others_pi_factor)
        return max(1, int(self._others_rng.expovariate(1.0 / mean)))

    def _sample_others_reason(self) -> ExitReason:
        if self._others_rng.random() < 0.7:
            return EXIT_EPT_VIOLATION
        return EXIT_PENDING_INTERRUPT

    # ------------------------------------------------------------ accounting
    @property
    def guest_time(self) -> int:
        """Total guest-mode nanoseconds of this vCPU."""
        return self.mode_exec[MODE_GUEST]

    @property
    def host_time(self) -> int:
        """Total host-mode (exit handling) nanoseconds of this vCPU."""
        return self.mode_exec[MODE_HOST]

    def time_in_guest(self) -> float:
        """TIG: guest time over guest+host time (Section VI-C)."""
        denom = self.guest_time + self.host_time
        if denom == 0:
            return 0.0
        return self.guest_time / denom
