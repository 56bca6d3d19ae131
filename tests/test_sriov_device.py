"""Unit tests for the VF device and driver internals."""

from __future__ import annotations

import pytest

from repro.config import FeatureSet
from repro.errors import VirtioError
from repro.experiments.testbed import Testbed
from repro.guest.ops import GKick, GWork
from repro.guest.tasks import GuestTask, TaskBlock
from repro.net.packet import Packet
from repro.sriov.driver import _DOORBELL_NS
from repro.units import MS, US, us


def vf_testbed(seed=31):
    tb = Testbed(seed=seed)
    vmset = tb.add_sriov_vm("tested", 1, FeatureSet(pi=True), vcpu_pinning=[0])
    tb.boot()
    return tb, vmset


class TestVfTx:
    def test_doorbell_drains_in_order_without_cpu(self):
        tb, vmset = vf_testbed()
        device = vmset.device
        got = []
        tb.external.register_flow("raw", lambda p: got.append(p.seq))
        for i in range(5):
            device.txq.push(Packet("raw", "data", 400, dst="peer", seq=i))
        device.doorbell()
        tb.run_for(MS)
        assert got == [0, 1, 2, 3, 4]
        assert device.tx_wire_packets == 5

    def test_doorbell_idempotent_while_draining(self):
        tb, vmset = vf_testbed()
        device = vmset.device
        tb.external.register_flow("raw", lambda p: None)
        for i in range(3):
            device.txq.push(Packet("raw", "data", 400, dst="peer", seq=i))
        device.doorbell()
        device.doorbell()  # second ring while the engine is active
        tb.run_for(MS)
        assert device.tx_wire_packets == 3  # no duplicates

    def test_second_driver_rejected(self):
        tb, vmset = vf_testbed()
        from repro.sriov.driver import VfDriver

        with pytest.raises(VirtioError):
            VfDriver(vmset.guest_os, vmset.device)


def nic_testbed(kind, seed=31):
    """A one-vCPU VM with a virtio NIC or an assigned VF, not booted: the
    tests below drive the driver's generators by hand."""
    tb = Testbed(seed=seed)
    if kind == "vf":
        return tb, tb.add_sriov_vm("tested", 1, FeatureSet(pi=True), vcpu_pinning=[0])
    return tb, tb.add_vm("tested", 1, FeatureSet(pi=True), vcpu_pinning=[0], vhost_core=1)


def fill_tx_ring(device):
    for i in range(device.txq.size):
        device.txq.push(Packet("raw", "data", 100, dst="peer", seq=i))


class _WakeCounter(GuestTask):
    """A task stub that counts the driver's TX-space wakes."""

    def __init__(self):
        super().__init__("tx-stub")
        self.wakes = 0

    def wake_task(self, waker_context=None):
        self.wakes += 1


@pytest.mark.parametrize("kind", ["virtio", "vf"])
class TestDriverTx:
    """TX back-pressure, which both drivers share."""

    def test_driver_xmit_reports_ring_full(self, kind):
        tb, vmset = nic_testbed(kind)
        fill_tx_ring(vmset.device)
        gen = vmset.driver.xmit_ops(Packet("raw", "data", 100, dst="peer"), us(1))
        op = next(gen)
        assert type(op) is GWork and op.ns == us(1)  # charged before the check
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value is False
        assert vmset.driver._tx_space_waiters == []

    def test_task_blocks_on_full_ring_and_retries(self, kind):
        tb, vmset = nic_testbed(kind)
        device, driver = vmset.device, vmset.driver
        fill_tx_ring(device)
        task = _WakeCounter()
        pkt = Packet("raw", "data", 100, dst="peer", seq=999)
        gen = driver.xmit_ops(pkt, us(1), task)
        op = next(gen)
        assert type(op) is GWork and op.ns == us(1)
        assert type(next(gen)) is TaskBlock
        assert task.wakes == 0
        # A pop that reopens the full ring wakes the blocked task, once.
        device.txq.pop()
        device.txq.pop()
        assert task.wakes == 1
        # The retry charges the stack work again, then queues and notifies.
        op = next(gen)
        assert type(op) is GWork and op.ns == us(1)
        notify = next(gen)
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value is True
        queued = [device.txq.pop() for _ in range(len(device.txq))]
        assert queued[-1] is pkt
        if kind == "vf":
            assert type(notify) is GWork and notify.ns == _DOORBELL_NS
            assert driver.doorbells == 1
        else:
            assert type(notify) is GKick and notify.queue is device.txq


class TestVfRx:
    def test_interrupt_moderation_window(self):
        tb, vmset = vf_testbed()
        device = vmset.device
        raised = []
        real_signal = tb.kvm.router.signal
        tb.kvm.router.signal = lambda vm, route: raised.append(tb.sim.now)
        for i in range(20):
            device.enqueue_from_wire(Packet("raw", "data", 200, dst="tested", seq=i))
        tb.run_for(MS)
        # The burst of 20 packets (DMA-complete within ~8us) produced ONE
        # immediate interrupt; because our stub never drains the ring, the
        # ITR legitimately re-raises once per window afterwards.
        from repro.sriov.vf import _VF_ITR_NS

        assert raised[0] < 10 * US
        early = [t for t in raised if t < _VF_ITR_NS]
        assert len(early) == 1  # not one per packet
        for a, b in zip(raised, raised[1:]):
            assert b - a >= _VF_ITR_NS
        tb.kvm.router.signal = real_signal

    def test_interrupt_without_route_raises(self, sim):
        from repro.guest.os import GuestOS
        from repro.kvm.hypervisor import Kvm
        from repro.sriov.vf import VfDevice
        from tests.conftest import make_machine

        m = make_machine(sim, n_cores=2)
        kvm = Kvm(m)
        vm = kvm.create_vm("vm", 1, FeatureSet(pi=True), vcpu_pinning=[0])
        GuestOS(vm)
        device = VfDevice(vm)  # no driver installed
        device.rxq.push(Packet("raw", "data", 200, dst="vm"))
        with pytest.raises(VirtioError):
            device._maybe_interrupt()


class TestNetstackBlocking:
    def test_task_blocks_on_full_tx_ring_and_resumes(self):
        from repro.core.configs import paper_config
        from repro.experiments.testbed import single_vcpu_testbed
        from repro.workloads.netperf import NetperfUdpSend

        tb = single_vcpu_testbed(paper_config("PI"), seed=31)
        # Freeze the backend so the TX ring fills up.
        worker = tb.tested.vhost.worker
        original_activate = worker.activate
        worker.activate = lambda handler: None
        wl = NetperfUdpSend(tb, tb.tested, payload_size=256)
        tb.run_for(100 * MS)
        assert tb.tested.device.txq.is_full
        sent_while_frozen = wl.flows[0].datagrams_sent
        assert sent_while_frozen == tb.tested.device.txq.size
        # Un-freeze: the backend drains, space callbacks wake the sender.
        worker.activate = original_activate
        tb.tested.device.txq.backend_notified()
        tb.run_for(100 * MS)
        assert wl.flows[0].datagrams_sent > sent_while_frozen + 1000
