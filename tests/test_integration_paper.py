"""Integration tests for the paper's headline claims (fast versions).

The flow checks every claim at longer windows (``repro.experiments.claims``);
these versions are cheap enough for the regular test run and pin the
*qualitative* claims so regressions in any subsystem surface immediately.
"""

from __future__ import annotations

from repro.core.configs import paper_config
from repro.experiments.runner import measure_window
from repro.experiments.testbed import multiplexed_testbed, single_vcpu_testbed
from repro.units import MS, SEC
from repro.workloads.netperf import NetperfTcpSend, NetperfUdpSend
from repro.workloads.ping import PingWorkload

FAST = dict(warmup_ns=100 * MS, measure_ns=250 * MS)


def run_send(config, proto="udp", quota=8, seed=1, **kwargs):
    tb = single_vcpu_testbed(paper_config(config, quota=quota), seed=seed)
    if proto == "udp":
        wl = NetperfUdpSend(tb, tb.tested, payload_size=256)
    else:
        wl = NetperfTcpSend(tb, tb.tested, payload_size=1024)
    return measure_window(tb, wl, **FAST)


class TestHeadlineClaims:
    def test_pi_eliminates_interrupt_exits_tcp(self):
        base = run_send("Baseline", proto="tcp")
        pi = run_send("PI", proto="tcp")
        assert base.exit_rates.interrupt_delivery > 10_000
        assert base.exit_rates.interrupt_completion > 10_000
        assert pi.exit_rates.interrupt_delivery == 0
        assert pi.exit_rates.interrupt_completion == 0

    def test_pi_increases_io_exits_tcp(self):
        """Table I: freed CPU sends more packets, so I/O exits rise ~20%."""
        base = run_send("Baseline", proto="tcp")
        pi = run_send("PI", proto="tcp")
        assert pi.exit_rates.io_request > base.exit_rates.io_request * 1.05

    def test_hybrid_eliminates_io_exits_udp(self):
        base = run_send("Baseline", proto="udp")
        pih = run_send("PI+H", proto="udp", quota=8)
        assert base.exit_rates.io_request > 40_000
        assert pih.exit_rates.io_request < base.exit_rates.io_request / 20

    def test_tig_above_96_percent_tcp(self):
        """Paper abstract: TIG above 96% for TCP streams under ES2."""
        pih = run_send("PI+H", proto="tcp", quota=4)
        assert pih.tig > 0.96

    def test_tig_above_99_percent_udp(self):
        """Paper abstract: TIG above 99% for UDP streams under ES2."""
        pih = run_send("PI+H", proto="udp", quota=8)
        assert pih.tig > 0.99

    def test_es2_improves_throughput(self):
        base = run_send("Baseline", proto="tcp")
        es2 = run_send("PI+H+R", proto="tcp", quota=4)
        assert es2.throughput_gbps > base.throughput_gbps * 1.3

    def test_guest_os_unmodified(self):
        """The guest model is identical across configurations: ES2 needs no
        guest changes (paper contribution 2).  Same guest code paths, same
        task structure — only hypervisor/backend objects differ."""
        tb_a = single_vcpu_testbed(paper_config("Baseline"), seed=1)
        tb_b = single_vcpu_testbed(paper_config("PI+H+R"), seed=1)
        ga, gb = tb_a.tested.guest_os, tb_b.tested.guest_os
        assert type(ga) is type(gb)
        assert {v for v in ga._irq_handlers} == {v for v in gb._irq_handlers}
        # Guest-visible driver is the same class; only backend handlers vary.
        assert type(tb_a.tested.driver) is type(tb_b.tested.driver)


class TestRedirectionClaims:
    def test_redirection_slashes_ping_rtt(self):
        results = {}
        for name in ("PI", "PI+H+R"):
            tb = multiplexed_testbed(paper_config(name, quota=4), seed=3)
            wl = PingWorkload(tb, tb.tested, interval_ns=10 * MS)
            wl.start()
            tb.run_for(int(0.8 * SEC))
            results[name] = wl
        assert results["PI+H+R"].mean_rtt_ms() < results["PI"].mean_rtt_ms() / 2

    def test_timer_interrupts_never_redirected(self):
        """Section V-C: per-vCPU interrupts must not be redirected; the
        vector-range filter keeps the guest alive for the whole run."""
        tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=3)
        wl = PingWorkload(tb, tb.tested, interval_ns=10 * MS)
        wl.start()
        tb.run_for(int(0.5 * SEC))  # would raise GuestCrash on misdelivery
        assert tb.tested.guest_os.timer_ticks > 100
        assert tb.es2.redirector.redirects_online + tb.es2.redirector.redirects_predicted > 0

    def test_redirection_balances_interrupt_load(self):
        """With stickiness bounded by descheduling, interrupts spread over
        the VM's vCPUs rather than pinning to vCPU0."""
        tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=3)
        wl = PingWorkload(tb, tb.tested, interval_ns=2 * MS)
        wl.start()
        tb.run_for(SEC)
        loads = [tb.es2.redirector.irq_load(tb.tested.vm, i) for i in range(4)]
        assert sum(loads) > 100
        # No single vCPU received more than 80% of the redirected load.
        assert max(loads) < 0.8 * sum(loads)


class TestVirtualizationBenefitsRetained:
    def test_vcpus_share_cores_under_es2(self):
        """Unlike ELI/DID, ES2 keeps physical-CPU multiplexing: four VMs'
        vCPUs time-share the same cores and all make progress."""
        tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=3)
        tb.run_for(int(0.5 * SEC))
        for setup in tb.vm_setups:
            for vcpu in setup.vm.vcpus:
                assert vcpu.guest_time > 0

    def test_fair_sharing_across_vms(self):
        tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=3)
        tb.run_for(SEC)
        totals = [sum(v.sum_exec for v in s.vm.vcpus) for s in tb.vm_setups]
        # CFS keeps VM shares within ~25% of each other.
        assert max(totals) < 1.25 * min(totals)
