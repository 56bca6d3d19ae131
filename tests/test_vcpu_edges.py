"""Edge-case tests for the vCPU execution state machine."""

from __future__ import annotations

import pytest

from repro.config import FeatureSet
from repro.errors import HypervisorError
from repro.guest.ops import GKick, GWork
from repro.guest.os import GuestOS
from repro.guest.tasks import CpuBurnTask, GuestTask, TaskBlock
from repro.hw.lapic import IPI_KIND_PI_NOTIFY, POSTED_INTR_VECTOR
from repro.kvm.exits import ExitReason
from repro.kvm.hypervisor import Kvm
from repro.kvm.idt import LOCAL_TIMER_VECTOR
from repro.sched.thread import ThreadState
from repro.units import MS, SEC, us
from tests.conftest import make_machine


def build(sim, features, n_vcpus=1, pinning=None, burn=True, n_cores=2):
    m = make_machine(sim, n_cores=n_cores)
    kvm = Kvm(m)
    vm = kvm.create_vm("vm0", n_vcpus, features, vcpu_pinning=pinning)
    os = GuestOS(vm)
    if burn:
        os.add_task_per_vcpu(lambda i: CpuBurnTask(f"b{i}"))
    return m, kvm, vm, os


class TestHltPaths:
    def test_halted_vcpu_wakes_on_guest_task(self, sim):
        m, kvm, vm, os = build(sim, FeatureSet(pi=True), burn=False)

        class Late(GuestTask):
            def __init__(self):
                super().__init__("late")
                self.done = False

            def body(self):
                yield TaskBlock()
                yield GWork(us(5))
                self.done = True

        t = Late()
        os.add_task(t, 0)
        vm.boot()
        sim.run_until(10 * MS)
        assert vm.vcpus[0]._halted
        t.wake_task()  # host-side wake (e.g. timer callback)
        sim.run_until(20 * MS)
        assert t.done  # the vCPU left HLT, ran the task, and re-halted

    def test_halt_exit_counted_once_per_halt(self, sim):
        m, kvm, vm, os = build(sim, FeatureSet(pi=True), burn=False)
        vm.boot()
        sim.run_until(50 * MS)
        # One HLT on an empty guest; timer off in this build() (no tasks,
        # no timer started) so the vCPU stays halted.
        assert vm.exit_stats.counts[ExitReason.HLT] == 1

    def test_timer_wakes_halted_vcpu_periodically(self, sim):
        m, kvm, vm, os = build(sim, FeatureSet(pi=True), burn=False)
        kvm.start_guest_timer(vm, period_ns=4 * MS)
        vm.boot()
        sim.run_until(SEC)
        # ~250 timer ticks handled despite the guest being otherwise idle.
        assert 150 < os.timer_ticks < 350
        assert vm.exit_stats.counts[ExitReason.HLT] > 100

    def test_baseline_halted_wake_uses_injection(self, sim):
        m, kvm, vm, os = build(sim, FeatureSet(pi=False), burn=False)
        vm.boot()
        sim.run_until(10 * MS)
        assert vm.vcpus[0]._halted
        kvm.deliver_vcpu_interrupt(vm.vcpus[0], LOCAL_TIMER_VECTOR)
        sim.run_until(20 * MS)
        assert os.timer_ticks == 1
        # Wake-from-halt injects at entry; EOI still exits.
        assert vm.exit_stats.counts[ExitReason.APIC_ACCESS] >= 1


class TestForcedExits:
    def test_kick_ipi_to_host_mode_vcpu_is_ignored(self, sim):
        m, kvm, vm, os = build(sim, FeatureSet(pi=False))
        vm.boot()
        sim.run_until(5 * MS)
        vcpu = vm.vcpus[0]
        vcpu.in_guest = False  # simulate root-mode window
        vcpu.on_host_ipi(0xFD, "kick")
        assert vcpu._forced_exit is None
        vcpu.in_guest = True  # restore

    def test_spurious_pi_notify_is_harmless(self, sim):
        m, kvm, vm, os = build(sim, FeatureSet(pi=True))
        vm.boot()
        sim.run_until(5 * MS)
        vcpu = vm.vcpus[0]
        before = vm.exit_stats.total
        # A PI notification with an empty PIR (e.g. meant for a vCPU that
        # was just descheduled): hardware syncs nothing, no exit.
        vcpu.on_host_ipi(0xF2, "pi-notify")
        sim.run_until(6 * MS)
        assert vm.exit_stats.total - before <= 2  # only background exits

    def test_boot_without_guest_context_raises(self, sim):
        m = make_machine(sim, n_cores=2)
        kvm = Kvm(m)
        vm = kvm.create_vm("vm0", 1, FeatureSet(pi=True))
        with pytest.raises(HypervisorError):
            vm.boot()


class TestSchedInResync:
    def test_preempted_vcpu_receives_pending_pi_at_sched_in(self, sim):
        """PIR bits posted while a vCPU is preempted are synced when it is
        dispatched again (KVM vcpu_load), without requiring an entry."""
        m, kvm, vm, os = build(
            sim, FeatureSet(pi=True), n_vcpus=2, pinning=[0, 0], n_cores=1
        )
        vector = vm.vector_allocator.allocate("dev")
        hits = []

        def factory(context):
            def ops():
                yield GWork(us(1))
                hits.append(context.vcpu.index)

            return ops()

        os.register_irq_handler(vector, factory)
        vm.boot()
        sim.run_until(20 * MS)
        offline = next(v for v in vm.vcpus if v.state is not ThreadState.RUNNING)
        kvm.deliver_vcpu_interrupt(offline, vector)
        assert offline.vapic.pi_desc.has_pending()
        sim.run_until(300 * MS)
        assert offline.index in hits

    def test_preempted_baseline_vcpu_injects_at_resume(self, sim):
        m, kvm, vm, os = build(
            sim, FeatureSet(pi=False), n_vcpus=2, pinning=[0, 0], n_cores=1
        )
        vector = vm.vector_allocator.allocate("dev")
        hits = []

        def factory(context):
            def ops():
                yield GWork(us(1))
                hits.append(context.vcpu.index)

            return ops()

        os.register_irq_handler(vector, factory)
        vm.boot()
        sim.run_until(20 * MS)
        offline = next(v for v in vm.vcpus if v.state is not ThreadState.RUNNING)
        kvm.deliver_vcpu_interrupt(offline, vector)
        sim.run_until(300 * MS)
        assert offline.index in hits


class TestAccountingInvariants:
    def test_guest_plus_host_bounded_by_exec(self, sim):
        m, kvm, vm, os = build(sim, FeatureSet(pi=True))
        vm.boot()
        sim.run_until(200 * MS)
        v = vm.vcpus[0]
        assert v.guest_time + v.host_time <= v.sum_exec
        assert v.guest_time > 0 and v.host_time > 0

    def test_entries_at_least_exits(self, sim):
        m, kvm, vm, os = build(sim, FeatureSet(pi=False))
        vm.boot()
        sim.run_until(200 * MS)
        v = vm.vcpus[0]
        # Every exit is followed by an entry (inline round trips), plus the
        # initial entry.
        assert v.entries >= vm.exit_stats.total

    def test_exit_stats_match_global(self, sim):
        m, kvm, vm, os = build(sim, FeatureSet(pi=False))
        vm.boot()
        sim.run_until(100 * MS)
        assert vm.exit_stats.total == kvm.global_exit_stats.total


class TestVectorCheckAfterGuestWork:
    def test_vector_posted_while_the_last_iteration_serves_an_interrupt(self, sim):
        """Guest work whose last iteration serves vector A, whose handler
        posts vector B: B is delivered before the guest's next op."""
        m, kvm, vm, os = build(sim, FeatureSet(pi=True), burn=False, pinning=[0])
        vcpu = vm.vcpus[0]
        vec_a = vm.vector_allocator.allocate("a")
        vec_b = vm.vector_allocator.allocate("b")
        order = []

        def handler(name, post=None):
            def factory(context):
                def ops():
                    order.append(name)
                    if post is not None:
                        kvm.deliver_vcpu_interrupt(vcpu, post)
                    yield GWork(us(5))
                return ops()
            return factory

        os.register_irq_handler(vec_a, handler("A", post=vec_b))
        os.register_irq_handler(vec_b, handler("B"))

        def land_a():
            # A's notification IPI lands at the instant the guest work ends.
            vcpu.vapic.pi_desc.post(vec_a)
            vcpu.on_host_ipi(POSTED_INTR_VECTOR, IPI_KIND_PI_NOTIFY)

        class Worker(GuestTask):
            def body(self):
                # Scheduled before the work's completion event, so it fires
                # first at the same instant: A ends the work's last segment.
                sim.schedule(us(10), land_a)
                yield GWork(us(10))
                order.append("next op")
                yield TaskBlock()

        os.add_task(Worker("w"), 0)
        vm.boot()
        sim.run_until(MS)
        assert order == ["A", "B", "next op"]


class TestVectorCheckAfterKick:
    def test_vector_latched_during_an_exiting_kick_is_served_first(self, sim):
        """A kick that exits, whose I/O round trip latches vector A in the
        emulated APIC: A is delivered before the guest's next op, although
        the kick's notify write ended on a check that found nothing."""
        m, kvm, vm, os = build(sim, FeatureSet(pi=False), burn=False, pinning=[0])
        vcpu = vm.vcpus[0]
        vec_a = vm.vector_allocator.allocate("a")
        order = []

        def handler(context):
            def ops():
                order.append("A")
                yield GWork(us(5))
            return ops()

        os.register_irq_handler(vec_a, handler)

        class Queue:
            """Armed, so the kick exits; its backend latches A."""

            def guest_should_kick(self):
                return True

            def note_kick(self, exited):
                order.append(f"kick exited={exited}")

            def backend_notified(self):
                kvm.deliver_vcpu_interrupt(vcpu, vec_a)

        class Kicker(GuestTask):
            def body(self):
                yield GKick(Queue())
                order.append("next op")
                yield TaskBlock()

        os.add_task(Kicker("k"), 0)
        vm.boot()
        sim.run_until(MS)
        assert order == ["kick exited=True", "A", "next op"]
