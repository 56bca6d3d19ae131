"""Engine-level tests for the policy zoo: selection, behaviour, adaptive
core allocation.

Covers the selection (``SchedParams.policy`` alone picks the policy), the
characteristic preemption geometry of each non-CFS policy, and the
adaptive backend-CPU allocation controller.
"""

from __future__ import annotations

import pytest

from repro.config import SchedParams
from repro.errors import ConfigError
from repro.sched.cfs import CfsRunqueue
from repro.sched.policies import DeadlineQueue, MultilevelFeedbackQueue, RoundRobinQueue
from repro.sched.thread import Block, Consume, CpuMode, Thread
from repro.units import MS, SEC, US
from tests.conftest import make_machine


class BusyThread(Thread):
    def __init__(self, machine, name, chunk=MS, nice=0, pinned_core=None):
        super().__init__(machine, name, nice=nice, pinned_core=pinned_core)
        self.chunk = chunk

    def body(self):
        while True:
            yield Consume(self.chunk, CpuMode.KERNEL)


class SleeperThread(Thread):
    def __init__(self, machine, name, burst=50 * US, sleep=2 * MS, pinned_core=None):
        super().__init__(machine, name, pinned_core=pinned_core)
        self.burst = burst
        self.sleep_ns = sleep
        self.wakeup_latencies = []

    def body(self):
        while True:
            yield Consume(self.burst, CpuMode.KERNEL)
            wanted = self.sim.now + self.sleep_ns
            self.sim.schedule(self.sleep_ns, self.wake)
            yield Block()
            self.wakeup_latencies.append(self.sim.now - wanted)


EXPECTED_RQ = {
    "cfs": CfsRunqueue,
    "rr": RoundRobinQueue,
    "mlfq": MultilevelFeedbackQueue,
    "deadline": DeadlineQueue,
}


class TestPolicySelection:
    @pytest.mark.parametrize("policy", sorted(EXPECTED_RQ))
    def test_explicit_params_select_the_policy(self, sim, policy):
        m = make_machine(sim, n_cores=2, sched_params=SchedParams(policy=policy))
        assert m.sched_policy == policy
        for core in m.cores:
            assert type(core.rq) is EXPECTED_RQ[policy]

    def test_environment_does_not_override_cfs(self, sim, monkeypatch):
        """An explicit or default ``SchedParams`` asks for CFS, and gets it
        whatever the environment holds."""
        monkeypatch.setenv("REPRO_SCHED_POLICY", "rr")
        for params in (SchedParams(policy="cfs"), SchedParams()):
            m = make_machine(sim, n_cores=1, sched_params=params)
            assert m.sched_policy == "cfs"
            assert type(m.cores[0].rq) is CfsRunqueue

    def test_unknown_policy_rejected(self, sim):
        with pytest.raises(ConfigError):
            make_machine(sim, n_cores=1, sched_params=SchedParams(policy="bogus"))


class TestPolicyBehaviour:
    @pytest.mark.parametrize("policy", sorted(EXPECTED_RQ))
    def test_engine_runs_and_shares_cpu(self, sim, policy):
        """Every policy drives the dispatch engine: equal-weight hogs all
        make progress and the core stays essentially saturated."""
        m = make_machine(sim, n_cores=1, sched_params=SchedParams(policy=policy))
        threads = [BusyThread(m, f"t{i}", pinned_core=0) for i in range(3)]
        for t in threads:
            m.spawn(t)
        sim.run_until(300 * MS)
        total = sum(t.sum_exec for t in threads)
        assert total > int(0.9 * 300 * MS)
        for t in threads:
            assert t.sum_exec > 30 * MS

    def test_rr_rotates_in_slices(self, sim):
        params = SchedParams(policy="rr")
        m = make_machine(sim, n_cores=1, sched_params=params)
        a = BusyThread(m, "a", pinned_core=0)
        b = BusyThread(m, "b", pinned_core=0)
        m.spawn(a)
        m.spawn(b)
        sim.run_until(SEC)
        # FIFO rotation with equal slices -> near-equal shares.
        ratio = a.sum_exec / b.sum_exec
        assert 0.9 < ratio < 1.1

    def test_rr_wakeup_never_preempts(self):
        """RR has no wakeup preemption: a sleeper waits for the hog's slice
        to expire, so its wakeup latency is far worse than under CFS where
        sleeper credit preempts the hog almost immediately."""
        from repro.sim.simulator import Simulator

        def sleeper_latency(policy):
            sim = Simulator(seed=42)
            m = make_machine(sim, n_cores=1, sched_params=SchedParams(policy=policy))
            hog = BusyThread(m, "hog", pinned_core=0)
            # sleep incommensurate with rr_slice_ns so the wakeups don't
            # phase-lock onto the rotation boundary
            s = SleeperThread(m, "s", sleep=3_700_000, pinned_core=0)
            m.spawn(hog)
            m.spawn(s)
            sim.run_until(SEC)
            assert len(s.wakeup_latencies) > 50
            return sum(s.wakeup_latencies) / len(s.wakeup_latencies)

        assert sleeper_latency("rr") > 10 * sleeper_latency("cfs")

    def test_mlfq_favours_interactive_sleeper(self, sim):
        m = make_machine(sim, n_cores=1, sched_params=SchedParams(policy="mlfq"))
        hog = BusyThread(m, "hog", pinned_core=0)
        s = SleeperThread(m, "s", sleep=5 * MS, pinned_core=0)
        m.spawn(hog)
        m.spawn(s)
        sim.run_until(SEC)
        assert len(s.wakeup_latencies) > 100
        # the sleeper re-enters at the top level and preempts the demoted hog
        avg = sum(s.wakeup_latencies) / len(s.wakeup_latencies)
        assert avg < 2 * MS
        assert hog.sum_exec > int(0.8 * SEC)

    def test_deadline_rotation_is_starvation_free(self, sim):
        params = SchedParams(policy="deadline")
        m = make_machine(sim, n_cores=1, sched_params=params)
        threads = [BusyThread(m, f"t{i}", pinned_core=0) for i in range(4)]
        for t in threads:
            m.spawn(t)
        sim.run_until(SEC)
        shares = [t.sum_exec for t in threads]
        assert min(shares) > int(0.1 * SEC)


class TestAdaptiveAllocation:
    def _boot(self, duration_ns, **extra):
        from repro.core.configs import paper_config
        from repro.experiments.testbed import multiplexed_testbed
        from repro.workloads.ping import PingWorkload

        params = SchedParams(adaptive_alloc=True, adaptive_interval_ns=5 * MS, **extra)
        tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=7, sched_params=params)
        # some I/O so both pressure signals (exits, vhost rounds) are live
        wl = PingWorkload(tb, tb.tested, interval_ns=2 * MS)
        wl.start()
        tb.run_for(duration_ns)
        return tb

    def test_controller_partitions_all_cores(self):
        tb = self._boot(60 * MS)
        alloc = tb.adaptive
        assert alloc is not None
        assert alloc.evaluations >= 5
        backend = {c.index for c in alloc.backend_cores}
        vcpu = {c.index for c in alloc.vcpu_cores}
        assert backend.isdisjoint(vcpu)
        assert backend | vcpu == {c.index for c in tb.machine.cores}
        assert len(backend) >= tb.machine.sched_params.adaptive_min_backend_cores
        assert len(vcpu) >= tb.machine.sched_params.adaptive_min_vcpu_cores

    def test_idle_backend_cores_are_lent_to_vcpus(self):
        """With 16 vCPUs time-sharing 4 cores and mostly-idle vhost
        workers, the controller should hand backend cores to the vCPU
        side (that pressure imbalance is its whole reason to exist)."""
        tb = self._boot(100 * MS)
        alloc = tb.adaptive
        assert alloc.rebalances > 0
        assert len(alloc.vcpu_cores) > 4

    def test_counters_registered(self):
        tb = self._boot(30 * MS)
        snap = tb.machine.sim.obs.counters.snapshot_group(
            f"sched.adaptive.{tb.machine.name}")
        assert len(snap) == 1
        group = next(iter(snap.values()))
        assert group["evaluations"] > 0
        assert group["rebalances"] == group["cores_to_backend"] + group["cores_to_vcpu"]

    def test_rate_signals_are_read(self):
        """The pressure inputs come from live registry counters — VM exits
        on the vCPU side, handler rounds on the backend side."""
        tb = self._boot(30 * MS)
        exits, rounds = tb.adaptive._read_rates()
        assert exits > 0
        assert rounds > 0

    def test_default_path_has_no_allocator(self, sim):
        m = make_machine(sim, n_cores=2)
        assert m.placement.allocator is None
