"""Tests for the default tracer and the instrumented trace points.

The trace bus itself (filters, ring eviction, clear) is covered by
``tests/test_obs_trace.py``.
"""

from __future__ import annotations

from repro.core.configs import paper_config
from repro.experiments.testbed import single_vcpu_testbed
from repro.obs import TraceBus
from repro.sim.trace import NullTracer
from repro.units import MS
from repro.workloads.netperf import NetperfUdpSend


class TestNullTracer:
    def test_null_tracer_is_disabled(self):
        n = NullTracer()
        assert n.enabled is False
        n.record(1, "k")  # no-op
        assert len(n) == 0


#: ring size for the instrumented runs; the assertions below read complete
#: sequences, so each test also checks that nothing was evicted
_CAPACITY = 1 << 16


class TestInstrumentedTracePoints:
    def _traced_testbed(self, config, kinds=None):
        trace = TraceBus(kinds=kinds, capacity=_CAPACITY)
        tb = single_vcpu_testbed(paper_config(config, quota=8), seed=11)
        # Install post-hoc: the Simulator owns the tracer reference.
        tb.sim.trace = trace
        return tb, trace

    def test_vm_exit_trace(self):
        tb, trace = self._traced_testbed("Baseline", kinds=["vm-exit"])
        wl = NetperfUdpSend(tb, tb.tested, payload_size=256)
        tb.run_for(80 * MS)
        assert trace.evicted == 0
        exits = trace.of_kind("vm-exit")
        assert exits
        reasons = {f["reason"] for (_, f) in exits}
        assert "io-instruction" in reasons

    def test_pi_trace_shows_no_interrupt_exits(self):
        tb, trace = self._traced_testbed("PI+H", kinds=["vm-exit", "irq-handled"])
        wl = NetperfUdpSend(tb, tb.tested, payload_size=256)
        tb.run_for(50 * MS)
        assert trace.evicted == 0
        # Timer interrupts were handled...
        assert trace.of_kind("irq-handled")
        # ...but no external-interrupt or APIC-access exit was recorded.
        reasons = {f["reason"] for (_, f) in trace.of_kind("vm-exit")}
        assert "external-interrupt" not in reasons
        assert "apic-access" not in reasons

    def test_mode_switch_trace(self):
        tb, trace = self._traced_testbed("PI+H", kinds=["mode-switch"])
        wl = NetperfUdpSend(tb, tb.tested, payload_size=256)
        tb.run_for(80 * MS)
        assert trace.evicted == 0
        # UDP at quota 8 enters sustained polling; at most the startup
        # transient returns to notification mode.
        switches = trace.of_kind("mode-switch")
        assert len(switches) <= 5

    def test_redirect_trace(self):
        from repro.experiments.testbed import multiplexed_testbed

        trace = TraceBus(kinds=["irq-redirect"], capacity=_CAPACITY)
        tb = multiplexed_testbed(paper_config("PI+H+R"), seed=11)
        tb.sim.trace = trace
        from repro.workloads.ping import PingWorkload

        wl = PingWorkload(tb, tb.tested, interval_ns=5 * MS)
        wl.start()
        tb.run_for(200 * MS)
        assert trace.evicted == 0
        redirects = trace.of_kind("irq-redirect")
        assert redirects
        for _, f in redirects:
            assert f["target"] != f["orig"]
            assert f["vm"] == "vm0"
