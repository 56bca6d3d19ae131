"""Smoke tests for the experiment harness (short windows)."""

from __future__ import annotations

import pytest

from repro.core.configs import paper_config
from repro.errors import ConfigError
from repro.experiments.fig4 import fig4_points, format_fig4
from repro.experiments.fig9 import find_knee
from repro.experiments.runner import measure_window
from repro.experiments.table1 import format_table1, table1_points
from repro.experiments.testbed import Testbed, multiplexed_testbed, single_vcpu_testbed
from repro.parallel import run_sweep
from repro.units import MS
from repro.workloads.netperf import NetperfUdpSend

FAST = dict(warmup_ns=60 * MS, measure_ns=120 * MS)


class TestTestbedBuilders:
    def test_single_vcpu_layout(self, ):
        tb = single_vcpu_testbed(paper_config("PI"), seed=1)
        assert len(tb.vm_setups) == 1
        assert tb.tested.vm.n_vcpus == 1
        assert tb.tested.vm.vcpus[0].pinned_core == 0
        assert tb.tested.vhost.worker.pinned_core == 4

    def test_multiplexed_layout_stacks_vcpus(self):
        tb = multiplexed_testbed(paper_config("PI+H+R"), seed=1)
        assert len(tb.vm_setups) == 4
        for setup in tb.vm_setups:
            assert setup.vm.n_vcpus == 4
            assert [v.pinned_core for v in setup.vm.vcpus] == [0, 1, 2, 3]
        # vhost workers on the non-shared cores.
        assert {s.vhost.worker.pinned_core for s in tb.vm_setups} <= {4, 5, 6, 7}

    def test_boot_requires_guest_context(self):
        tb = Testbed(seed=1)
        vm = tb.kvm.create_vm("bare", 1, paper_config("PI"))
        tb.vm_setups.append(type("S", (), {"vm": vm})())
        with pytest.raises(ConfigError):
            tb.boot()

    def test_duplicate_address_rejected(self):
        from repro.errors import HardwareError

        tb = Testbed(seed=1)
        tb.add_vm("same", 1, paper_config("PI"))
        with pytest.raises(HardwareError):
            tb.add_vm("same", 1, paper_config("PI"))

    def test_mixed_configs_share_host(self):
        tb = Testbed(seed=1)
        tb.add_vm("a", 1, paper_config("Baseline"), vcpu_pinning=[0], vhost_core=4)
        tb.add_vm("b", 1, paper_config("PI+H+R"), vcpu_pinning=[1], vhost_core=5)
        tb.boot()
        tb.run_for(50 * MS)
        # Both guests run; features differ per VM.
        assert tb.vm_setups[0].vm.vcpus[0].guest_time > 0
        assert tb.vm_setups[1].vm.vcpus[0].guest_time > 0


class TestMeasureWindow:
    def test_returns_consistent_run(self):
        tb = single_vcpu_testbed(paper_config("PI+H", quota=8), seed=1)
        wl = NetperfUdpSend(tb, tb.tested, payload_size=256)
        run = measure_window(tb, wl, warmup_ns=60 * MS, measure_ns=120 * MS)
        assert run.config == "PI+H"
        assert run.throughput_gbps > 0.1
        assert 0.9 < run.tig <= 1.0
        assert run.total_exit_rate >= 0

    def test_determinism_same_seed(self):
        def one():
            tb = single_vcpu_testbed(paper_config("PI+H", quota=8), seed=42)
            wl = NetperfUdpSend(tb, tb.tested, payload_size=256)
            return measure_window(tb, wl, **FAST)

        a, b = one(), one()
        assert a.throughput_gbps == b.throughput_gbps
        assert a.exit_rates.as_dict() == b.exit_rates.as_dict()
        assert a.tig == b.tig

    def test_different_seeds_differ(self):
        def one(seed):
            tb = single_vcpu_testbed(paper_config("PI+H", quota=8), seed=seed)
            wl = NetperfUdpSend(tb, tb.tested, payload_size=256)
            return measure_window(tb, wl, **FAST)

        assert one(1).throughput_gbps != one(2).throughput_gbps


class TestExperimentRunners:
    def test_table1_fast(self):
        results = run_sweep(table1_points(seed=1, **FAST))
        assert set(results) == {"Baseline", "PI"}
        assert results["PI"].exit_rates.interrupt_delivery == 0
        text = format_table1(results)
        assert "Table I" in text

    def test_fig4_fast(self):
        points = run_sweep(fig4_points("udp", quotas=(16, 4), seed=1, **FAST))
        assert list(points) == [None, 16, 4]
        assert [p.quota for p in points.values()] == [None, 16, 4]
        text = format_fig4(points, "udp")
        assert "quota=4" in text

    def test_fig4_rejects_bad_protocol(self):
        with pytest.raises(ValueError):
            fig4_points("sctp")

    def test_find_knee_sustained(self):
        results = {
            ("X", 100): 1.0,
            ("X", 200): 9.0,  # transient spike
            ("X", 300): 1.2,
            ("X", 400): 8.0,
            ("X", 500): 9.0,
        }
        assert find_knee(results, "X", factor=3.0) == 400

    def test_find_knee_none_found(self):
        results = {("X", 100): 1.0, ("X", 200): 1.1}
        assert find_knee(results, "X") == 300
