"""Edge-case tests across small surfaces (error paths, invariants)."""

from __future__ import annotations

import pytest

from repro.config import FeatureSet
from repro.errors import HypervisorError, SchedulerError
from repro.guest.os import GuestOS
from repro.hw.msi import MsiMessage
from repro.kvm.hypervisor import Kvm
from repro.sched.thread import Block, Consume, CpuMode, Thread, ThreadState
from repro.units import MS, US
from tests.conftest import make_machine


class TestCoreErrorPaths:
    def test_poke_without_segment_raises(self, sim):
        m = make_machine(sim, n_cores=1)
        with pytest.raises(SchedulerError):
            m.cores[0].poke_current()

    def test_negative_consume_rejected(self, sim):
        with pytest.raises(SchedulerError):
            Consume(-5)

    def test_zero_time_livelock_detected(self, sim):
        m = make_machine(sim, n_cores=1)

        class Spinner(Thread):
            def body(self):
                while True:
                    yield Consume(0, CpuMode.KERNEL)

        m.spawn(Spinner(m, "spin", pinned_core=0))
        with pytest.raises(SchedulerError):
            sim.run_until(MS)

    @staticmethod
    def _mid_segment(sim):
        """A thread 1 ms into a queued (unfused) 10 ms segment."""
        m = make_machine(sim, n_cores=1)

        class Long(Thread):
            def body(self):
                yield Consume(10 * MS, CpuMode.KERNEL)

        t = Long(m, "long", pinned_core=0)
        m.spawn(t)
        sim.run_until(MS)
        assert m.cores[0]._completion_ev is not None
        return t

    def test_completion_with_time_remaining_rejected(self, sim):
        t = self._mid_segment(sim)
        t._request.remaining += US  # completion now fires 1 us early
        with pytest.raises(SchedulerError, match="completed with time remaining"):
            sim.run_until(20 * MS)

    def test_segment_overrun_rejected(self, sim):
        t = self._mid_segment(sim)
        t._request.remaining -= US  # completion now fires 1 us late
        with pytest.raises(SchedulerError, match="overran its scheduled completion"):
            sim.run_until(20 * MS)

    def test_wake_before_start_rejected(self, sim):
        m = make_machine(sim, n_cores=1)

        class T(Thread):
            def body(self):
                yield Block()

        t = T(m, "t")
        with pytest.raises(SchedulerError):
            t.wake()

    def test_double_start_rejected(self, sim):
        m = make_machine(sim, n_cores=1)

        class T(Thread):
            def body(self):
                yield Block()

        t = T(m, "t")
        m.spawn(t)
        with pytest.raises(SchedulerError):
            t.start()

    def test_wake_finished_thread_is_noop(self, sim):
        m = make_machine(sim, n_cores=1)

        class T(Thread):
            def body(self):
                yield Consume(US, CpuMode.KERNEL)

        t = T(m, "t", pinned_core=0)
        m.spawn(t)
        sim.run_until(MS)
        assert t.state is ThreadState.FINISHED
        t.wake()  # must not raise or resurrect
        assert t.state is ThreadState.FINISHED


class TestVmInvariants:
    def test_zero_vcpus_rejected(self, sim):
        m = make_machine(sim)
        kvm = Kvm(m)
        with pytest.raises(HypervisorError):
            kvm.create_vm("vm", 0, FeatureSet())

    def test_pinning_length_mismatch_rejected(self, sim):
        m = make_machine(sim)
        kvm = Kvm(m)
        with pytest.raises(HypervisorError):
            kvm.create_vm("vm", 2, FeatureSet(), vcpu_pinning=[0])

    def test_msi_route_registration(self, sim):
        m = make_machine(sim)
        kvm = Kvm(m)
        vm = kvm.create_vm("vm", 1, FeatureSet(pi=True))
        r1 = vm.register_msi_route(MsiMessage(vector=0x30, dest_vcpu=0))
        r2 = vm.register_msi_route(MsiMessage(vector=0x31, dest_vcpu=0))
        assert r1 != r2
        vm.update_msi_route(r1, MsiMessage(vector=0x32, dest_vcpu=0))
        assert vm.msi_routes[r1].vector == 0x32

    def test_update_unknown_route_rejected(self, sim):
        m = make_machine(sim)
        kvm = Kvm(m)
        vm = kvm.create_vm("vm", 1, FeatureSet(pi=True))
        with pytest.raises(HypervisorError):
            vm.update_msi_route(42, MsiMessage(vector=0x30, dest_vcpu=0))

    def test_router_unknown_route_rejected(self, sim):
        m = make_machine(sim)
        kvm = Kvm(m)
        vm = kvm.create_vm("vm", 1, FeatureSet(pi=True))
        with pytest.raises(HypervisorError):
            kvm.router.signal(vm, 7)

    def test_second_guest_os_rejected(self, sim):
        from repro.errors import GuestError

        m = make_machine(sim)
        kvm = Kvm(m)
        vm = kvm.create_vm("vm", 1, FeatureSet(pi=True))
        GuestOS(vm)
        with pytest.raises(GuestError):
            GuestOS(vm)

    def test_aggregate_tig_empty(self, sim):
        m = make_machine(sim)
        kvm = Kvm(m)
        vm = kvm.create_vm("vm", 2, FeatureSet(pi=True))
        assert vm.aggregate_tig() == 0.0


class TestWorkerDedupe:
    def test_activate_idempotent_while_queued(self, sim):
        from repro.vhost.worker import VhostWorker

        m = make_machine(sim, n_cores=2)
        worker = VhostWorker(m, "w", pinned_core=1)

        class FakeHandler:
            runs = 0

            def run(self, w):
                self.runs += 1
                return iter(())

        h = FakeHandler()
        m.spawn(worker)
        sim.run_for(MS)
        for _ in range(5):
            worker.activate(h)  # only the first should enqueue
        sim.run_for(5 * MS)
        assert h.runs == 1

    def test_separate_handlers_both_run(self, sim):
        from repro.vhost.worker import VhostWorker

        m = make_machine(sim, n_cores=2)
        worker = VhostWorker(m, "w", pinned_core=1)
        runs = []

        class FakeHandler:
            def __init__(self, tag):
                self.tag = tag

            def run(self, w):
                runs.append(self.tag)
                return iter(())

        m.spawn(worker)
        sim.run_for(MS)
        worker.activate(FakeHandler("a"))
        worker.activate(FakeHandler("b"))
        sim.run_for(5 * MS)
        assert runs == ["a", "b"]


class TestSimulatorMisc:
    def test_run_until_empty_drains(self, sim):
        hits = []
        sim.schedule(5, hits.append, 1)
        sim.schedule(9, hits.append, 2)
        sim.run_until_empty()
        assert hits == [1, 2]

    def test_machine_needs_cores(self, sim):
        from repro.errors import HardwareError
        from repro.hw.machine import Machine

        with pytest.raises(HardwareError):
            Machine(sim, n_cores=0)
