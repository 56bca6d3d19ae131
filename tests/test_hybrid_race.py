"""The hybrid handler's post-enable re-check race (Algorithm 1 line 19).

Regression focus: when the guest publishes concurrently with the handler
re-enabling notifications, the round must be reported as a re-check race —
not as a drain — and no "mode-switch" trace record may be emitted, since
the handler never actually left polling mode.
"""

from __future__ import annotations

from repro.config import FeatureSet
from repro.guest.os import GuestOS
from repro.kvm.hypervisor import Kvm
from repro.net.packet import Packet
from repro.obs import TraceBus
from repro.sim.simulator import Simulator
from repro.units import MS
from repro.vhost.net import VhostNet
from repro.virtio.device import VirtioNetDevice
from repro.virtio.frontend import VirtioNetDriver
from tests.conftest import make_machine


def build_hybrid(quota=8):
    from repro.hw.nic import Link, Nic

    sim = Simulator(seed=42, trace=TraceBus(capacity=4096))
    m = make_machine(sim, n_cores=4)
    kvm = Kvm(m)
    vm = kvm.create_vm("vm0", 1, FeatureSet(pi=True, hybrid=True, quota=quota),
                       vcpu_pinning=[0])
    os = GuestOS(vm)
    device = VirtioNetDevice(vm)
    vhost = VhostNet(device, pinned_core=1)
    VirtioNetDriver(os, device)
    peer = Nic(sim, "peer")
    peer.set_rx_handler(lambda p: None)
    Link(sim, m.nic, peer, rate_gbps=40.0)
    return sim, device, vhost.tx_handler


def _pkt(seq):
    return Packet("f", "data", 500, dst="peer", seq=seq)


class _RecordingWorker:
    """Stands in for the worker argument of one ``run`` round."""

    def __init__(self):
        self.activated = []
        self.delayed = []

    def activate(self, handler):
        self.activated.append(handler)

    def activate_delayed(self, handler):
        self.delayed.append(handler)


def drive_round(handler, worker):
    """Exhaust one generator round (CPU consumption is irrelevant here)."""
    for _ in handler.run(worker):
        pass


class TestRecheckRace:
    def test_race_counts_separately_and_stays_polling(self):
        sim, device, h = build_hybrid(quota=8)
        q = device.txq
        q.push(_pkt(0))
        q.push(_pkt(1))
        q.suppress_notify()  # a kick consumed the arming

        # The guest publishes exactly in the enable_notify window.
        original_enable = q.enable_notify

        def racing_enable():
            original_enable()
            q.push(_pkt(2))

        q.enable_notify = racing_enable
        worker = _RecordingWorker()
        drive_round(h, worker)

        assert h.recheck_races == 1
        assert h.drained == 0          # the round is NOT a drain
        assert h.quota_hits == 0
        assert q.notify_suppressed     # still in polling mode
        assert worker.activated == [h]  # immediate re-service, no delay
        assert worker.delayed == []
        # No spurious mode switch was traced: the handler never left
        # polling mode.
        assert sim.trace.evicted == 0
        assert sim.trace.of_kind("mode-switch") == []

    def test_clean_drain_reports_mode_switch(self):
        sim, device, h = build_hybrid(quota=8)
        q = device.txq
        q.push(_pkt(0))
        q.push(_pkt(1))
        q.suppress_notify()
        worker = _RecordingWorker()
        drive_round(h, worker)

        assert h.drained == 1
        assert h.recheck_races == 0
        assert not q.notify_suppressed
        assert sim.trace.evicted == 0
        switches = sim.trace.of_kind("mode-switch")
        assert len(switches) == 1
        assert switches[0][1]["mode"] == "notification"

    def test_race_packets_are_eventually_transmitted(self):
        sim, device, h = build_hybrid(quota=8)
        q = device.txq
        q.push(_pkt(0))
        q.suppress_notify()
        original_enable = q.enable_notify
        raced = []

        def racing_enable():
            original_enable()
            if not raced:
                raced.append(True)
                q.push(_pkt(1))

        q.enable_notify = racing_enable
        worker = _RecordingWorker()
        drive_round(h, worker)
        assert h.recheck_races == 1
        # The worker re-activates the handler; the next round drains the
        # raced packet and only then switches modes.
        drive_round(h, worker)
        assert h.packets == 2
        assert h.drained == 1

    def test_end_to_end_counters_consistent(self):
        sim, device, h = build_hybrid(quota=4)
        for i in range(10):
            device.txq.push(_pkt(i))
        h.on_guest_kick()
        sim.run_until(5 * MS)
        assert h.packets == 10
        # Every round is exactly one of: quota hit, drain, or re-check race.
        assert h.rounds == h.quota_hits + h.drained + h.recheck_races
