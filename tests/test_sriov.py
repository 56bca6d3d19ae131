"""Tests for the SR-IOV extension (Section VII)."""

from __future__ import annotations

from repro.config import FeatureSet
from repro.experiments.testbed import Testbed
from repro.kvm.exits import ExitReason
from repro.units import MS, SEC
from repro.workloads.netperf import NetperfTcpSend, NetperfUdpSend
from repro.workloads.ping import PingWorkload


def sriov_testbed(features, seed=13, n_vcpus=1, pinning=None):
    tb = Testbed(seed=seed)
    tb.add_sriov_vm("tested", n_vcpus, features, vcpu_pinning=pinning or [0])
    tb.boot()
    return tb


class TestVfDataPath:
    def test_no_io_instruction_exits_ever(self):
        """The defining property of device assignment."""
        tb = sriov_testbed(FeatureSet(pi=False))
        wl = NetperfUdpSend(tb, tb.tested, payload_size=256)
        tb.run_for(300 * MS)
        assert wl.sinks[0].datagrams > 1000
        assert tb.tested.vm.exit_stats.counts[ExitReason.IO_INSTRUCTION] == 0

    def test_tx_drains_without_host_cpu(self):
        tb = sriov_testbed(FeatureSet(pi=True))
        wl = NetperfUdpSend(tb, tb.tested, payload_size=256)
        tb.run_for(200 * MS)
        # Data flows, yet no host kernel thread ran (cores 1-7 idle of
        # KERNEL work; the only busy core is the vCPU's).
        from repro.sched.thread import CpuMode

        kernel_time = sum(c.mode_time[CpuMode.KERNEL] for c in tb.machine.cores)
        assert kernel_time == 0
        assert tb.tested.device.tx_wire_packets > 1000

    def test_assigned_baseline_pays_interrupt_exits(self):
        tb = sriov_testbed(FeatureSet(pi=False))
        wl = NetperfTcpSend(tb, tb.tested, payload_size=1024)
        tb.run_for(400 * MS)
        stats = tb.tested.vm.exit_stats
        # ACK interrupts are converted by the host: delivery + EOI exits.
        assert stats.counts[ExitReason.EXTERNAL_INTERRUPT] > 100
        assert stats.counts[ExitReason.APIC_ACCESS] > 100

    def test_vtd_pi_eliminates_interrupt_exits(self):
        tb = sriov_testbed(FeatureSet(pi=True))
        wl = NetperfTcpSend(tb, tb.tested, payload_size=1024)
        tb.run_for(400 * MS)
        stats = tb.tested.vm.exit_stats
        assert stats.counts[ExitReason.EXTERNAL_INTERRUPT] == 0
        assert stats.counts[ExitReason.APIC_ACCESS] == 0
        assert wl.sinks[0].segments > 1000

    def test_rx_ring_overflow_drops_in_hardware(self):
        tb = sriov_testbed(FeatureSet(pi=True))
        device = tb.tested.device
        from repro.net.packet import Packet

        # Stall the guest's NAPI by suppressing... simpler: flood faster
        # than the single vCPU can drain by blasting the ring directly.
        for i in range(device.rxq.size + 50):
            device.enqueue_from_wire(Packet("ghost", "data", 200, dst="tested"))
        tb.run_for(MS)
        assert device.rx_dropped > 0


class TestSriovRedirection:
    def _multiplexed(self, features, seed=13):
        tb = Testbed(seed=seed)
        for v in range(4):
            pinning = [j % 4 for j in range(4)]
            if v == 0:
                tb.add_sriov_vm(f"vm{v}", 4, features, vcpu_pinning=pinning)
            else:
                tb.add_vm(f"vm{v}", 4, features, vcpu_pinning=pinning, vhost_core=4 + v)
        tb.boot()
        return tb

    def test_redirection_applies_to_vf_interrupts(self):
        tb = self._multiplexed(FeatureSet(pi=True, redirect=True))
        wl = PingWorkload(tb, tb.tested, interval_ns=10 * MS)
        wl.start()
        tb.run_for(int(0.8 * SEC))
        assert tb.kvm.router.redirected > 10
        assert wl.mean_rtt_ms() < 4.0

    def test_vtd_pi_alone_still_stalls_on_scheduling(self):
        """Section VII's motivation for applying redirection to SR-IOV."""
        tb = self._multiplexed(FeatureSet(pi=True))
        wl = PingWorkload(tb, tb.tested, interval_ns=10 * MS)
        wl.start()
        tb.run_for(int(0.8 * SEC))
        assert wl.mean_rtt_ms() > 3.0

    def test_experiment_runner(self):
        from repro.experiments.sriov import format_sriov, sriov_points
        from repro.parallel import run_sweep

        results = run_sweep(sriov_points(seed=13, warmup_ns=80 * MS, measure_ns=150 * MS,
                                         ping_duration_ns=int(0.5 * SEC)))
        assert set(results) == {"Assigned", "VT-d PI", "VT-d PI+R"}
        # No SR-IOV config has I/O-request exits.
        for r in results.values():
            assert r.io_exit_rate == 0
        assert results["VT-d PI"].interrupt_exit_rate == 0
        assert results["Assigned"].interrupt_exit_rate > 0
        # Redirection improves responsiveness on top of VT-d PI.
        assert (
            results["VT-d PI+R"].ping.percentile_ms(50)
            < results["VT-d PI"].ping.percentile_ms(50)
        )
        text = format_sriov(results)
        assert "SR-IOV" in text
