"""Tests for the structured trace bus (repro.obs.tracebus)."""

from __future__ import annotations

import pytest

from repro.core.configs import paper_config
from repro.experiments.testbed import multiplexed_testbed, single_vcpu_testbed
from repro.obs import KIND_CATEGORY, TRACE_CATEGORIES, TraceBus, TraceEvent
from repro.units import MS
from repro.workloads.netperf import NetperfUdpSend
from repro.workloads.ping import PingWorkload


# ------------------------------------------------------------------ unit


def test_every_mapped_category_is_declared():
    assert set(KIND_CATEGORY.values()) <= set(TRACE_CATEGORIES)


def test_record_and_query():
    bus = TraceBus()
    assert bus.enabled
    bus.record(10, "vm-exit", reason="io")
    bus.record(20, "net-tx", size=1024)
    bus.record(30, "made-up-kind", x=1)
    assert len(bus) == 3
    assert bus.recorded == 3
    assert bus.events[0] == TraceEvent(10, "exit", "vm-exit", {"reason": "io"})
    assert bus.of_kind("net-tx") == [(20, {"size": 1024})]
    # Unknown kinds land in "other" rather than being dropped.
    assert [e.kind for e in bus.events if e.category == "other"] == ["made-up-kind"]
    assert bus.counts_by_kind() == {"vm-exit": 1, "net-tx": 1, "made-up-kind": 1}


def test_category_filter():
    bus = TraceBus(categories=("net",))
    bus.record(1, "net-rx")
    bus.record(2, "vm-exit")
    bus.record(3, "sched-in")
    assert len(bus) == 1
    assert bus.filtered == 2
    assert bus.events[0].kind == "net-rx"


def test_kind_filter_ands_with_category_filter():
    bus = TraceBus(categories=("irq",), kinds=("irq-deliver",))
    bus.record(1, "irq-deliver", vector=33)
    bus.record(2, "irq-handled", vector=33)  # right category, wrong kind
    bus.record(3, "net-tx")  # wrong everything
    assert [e.kind for e in bus.events] == ["irq-deliver"]
    assert bus.filtered == 2


def test_ring_overflow_evicts_oldest():
    bus = TraceBus(capacity=4)
    for t in range(10):
        bus.record(t, "net-tx", seq=t)
    assert len(bus) == 4
    assert bus.recorded == 10
    assert bus.evicted == 6
    assert [e.t for e in bus.events] == [6, 7, 8, 9]


def test_clear_resets_bookkeeping():
    bus = TraceBus(capacity=2)
    for t in range(5):
        bus.record(t, "net-tx")
    bus.clear()
    assert len(bus) == 0
    assert (bus.recorded, bus.evicted, bus.filtered) == (0, 0, 0)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        TraceBus(categories=("not-a-category",))
    with pytest.raises(ValueError):
        TraceBus(capacity=0)


# ----------------------------------------------------------- integration


def test_trace_bus_installs_on_simulator_and_sees_net_traffic():
    tb = single_vcpu_testbed(paper_config("Baseline"), seed=1)
    bus = tb.sim.trace_bus(categories=("net",))
    assert tb.sim.trace is bus
    wl = NetperfUdpSend(tb, tb.tested, n_streams=1, payload_size=256)
    assert wl is not None
    tb.run_for(10 * MS)
    assert "net-tx" in bus.counts_by_kind()
    assert set(e.category for e in bus.events) == {"net"}
    t_values = [e.t for e in bus.events]
    assert t_values == sorted(t_values)


def test_trace_bus_sees_scheduling_under_multiplexing():
    tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=1)
    bus = tb.sim.trace_bus(categories=("sched", "net"))
    wl = PingWorkload(tb, tb.tested, interval_ns=5 * MS)
    wl.start()
    tb.run_for(40 * MS)
    kinds = bus.counts_by_kind()
    assert "sched-in" in kinds
    assert "sched-out" in kinds
    sched_in = bus.of_kind("sched-in")
    assert sched_in and all("vm" in fields and "vcpu" in fields for _, fields in sched_in)
