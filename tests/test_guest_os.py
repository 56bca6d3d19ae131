"""Tests for the guest OS model: netstack glue, resched IPIs, crashes."""

from __future__ import annotations

import pytest

from repro.core.configs import paper_config
from repro.errors import GuestCrash, GuestError
from repro.experiments.testbed import Testbed, single_vcpu_testbed
from repro.guest.ops import GWork
from repro.guest.tasks import GuestTask, TaskBlock
from repro.kvm.exits import ExitReason
from repro.kvm.idt import RESCHEDULE_VECTOR
from repro.net.packet import Packet
from repro.units import MS, us


class TestReschedIpi:
    def _two_vcpu_bed(self, features):
        tb = Testbed(seed=5)
        vmset = tb.add_vm("tested", 2, features, vcpu_pinning=[0, 1], vhost_core=4)
        return tb, vmset

    def test_cross_vcpu_wake_sends_ipi(self):
        tb, vmset = self._two_vcpu_bed(paper_config("PI"))
        os = vmset.guest_os

        woken = []

        class Sleeper(GuestTask):
            def body(self):
                yield TaskBlock()
                woken.append(tb.sim.now)
                yield GWork(us(1))

        sleeper = Sleeper("sleeper")
        os.add_task(sleeper, 1)  # lives on vCPU 1
        tb.boot()
        tb.run_for(20 * MS)
        # Wake from vCPU 0's context.
        sleeper.wake_task(os.contexts[0])
        tb.run_for(20 * MS)
        assert woken
        assert os.resched_ipis == 1

    def test_same_vcpu_wake_sends_no_ipi(self):
        tb, vmset = self._two_vcpu_bed(paper_config("PI"))
        os = vmset.guest_os

        class Sleeper(GuestTask):
            def body(self):
                yield TaskBlock()
                yield GWork(us(1))

        sleeper = Sleeper("sleeper")
        os.add_task(sleeper, 1)
        tb.boot()
        tb.run_for(20 * MS)
        sleeper.wake_task(os.contexts[1])  # same context
        tb.run_for(20 * MS)
        assert os.resched_ipis == 0

    def test_host_context_wake_sends_no_ipi(self):
        tb, vmset = self._two_vcpu_bed(paper_config("PI"))
        os = vmset.guest_os

        class Sleeper(GuestTask):
            def body(self):
                yield TaskBlock()
                yield GWork(us(1))

        sleeper = Sleeper("sleeper")
        os.add_task(sleeper, 1)
        tb.boot()
        tb.run_for(20 * MS)
        sleeper.wake_task(None)
        tb.run_for(20 * MS)
        assert os.resched_ipis == 0

    def test_baseline_resched_ipi_causes_exits(self):
        tb, vmset = self._two_vcpu_bed(paper_config("Baseline"))
        os = vmset.guest_os

        class Pingpong(GuestTask):
            """Task on vCPU1 woken repeatedly from vCPU0's context."""

            def body(self):
                while True:
                    yield TaskBlock()
                    yield GWork(us(1))

        target = Pingpong("pong")
        os.add_task(target, 1)
        tb.boot()
        tb.run_for(20 * MS)
        before_ext = vmset.vm.exit_stats.counts[ExitReason.EXTERNAL_INTERRUPT]
        before_apic = vmset.vm.exit_stats.counts[ExitReason.APIC_ACCESS]
        for _ in range(10):
            target.wake_task(os.contexts[0])
            tb.run_for(5 * MS)
        assert os.resched_ipis == 10
        # Baseline pays delivery and completion exits for guest IPIs...
        assert vmset.vm.exit_stats.counts[ExitReason.EXTERNAL_INTERRUPT] > before_ext
        assert vmset.vm.exit_stats.counts[ExitReason.APIC_ACCESS] >= before_apic + 10

    def test_pi_resched_ipi_is_exit_free(self):
        tb, vmset = self._two_vcpu_bed(paper_config("PI"))
        os = vmset.guest_os

        class Pingpong(GuestTask):
            def body(self):
                while True:
                    yield TaskBlock()
                    yield GWork(us(1))

        target = Pingpong("pong")
        os.add_task(target, 1)
        tb.boot()
        tb.run_for(20 * MS)
        before_ext = vmset.vm.exit_stats.counts[ExitReason.EXTERNAL_INTERRUPT]
        before_apic = vmset.vm.exit_stats.counts[ExitReason.APIC_ACCESS]
        for _ in range(10):
            target.wake_task(os.contexts[0])
            tb.run_for(5 * MS)
        assert os.resched_ipis == 10
        # ...PI posts them without any exit.
        assert vmset.vm.exit_stats.counts[ExitReason.EXTERNAL_INTERRUPT] == before_ext
        assert vmset.vm.exit_stats.counts[ExitReason.APIC_ACCESS] == before_apic


class TestDispatchErrors:
    def test_unknown_device_vector_is_guest_error(self):
        tb = single_vcpu_testbed(paper_config("PI"), seed=5)
        os = tb.tested.guest_os
        ctx = os.contexts[0]
        with pytest.raises(GuestError):
            os.dispatch_irq(0xE0, ctx)  # device range, no driver

    def test_misdelivered_percpu_vector_crashes_guest(self):
        tb = single_vcpu_testbed(paper_config("PI"), seed=5)
        os = tb.tested.guest_os
        ctx = os.contexts[0]
        with pytest.raises(GuestCrash):
            os.dispatch_irq(0xF0, ctx)  # system-vector range, unhandled

    def test_resched_vector_is_handled(self):
        tb = single_vcpu_testbed(paper_config("PI"), seed=5)
        os = tb.tested.guest_os
        ops = os.dispatch_irq(RESCHEDULE_VECTOR, os.contexts[0])
        assert list(ops)  # yields work, no crash


class TestNetstack:
    def test_unknown_flow_dropped(self):
        tb = single_vcpu_testbed(paper_config("PI"), seed=5)
        tb.tested.device.enqueue_from_wire(Packet("ghost-flow", "data", 200, dst="tested"))
        tb.run_for(10 * MS)
        assert tb.tested.netstack.rx_dropped == 1

    def test_duplicate_flow_rejected(self):
        class Flow:
            def guest_rx_ops(self, packet, context):
                yield from ()

        tb = single_vcpu_testbed(paper_config("PI"), seed=5)
        tb.tested.netstack.register_flow("f1", Flow())
        with pytest.raises(GuestError):
            tb.tested.netstack.register_flow("f1", Flow())
