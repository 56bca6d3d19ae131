"""Tests for the causal event-path span layer (repro.obs.spans et al.).

Covers the span lifecycle edge cases ISSUE 3 names — orphaned spans,
spans crossing a ring eviction, redirected-IRQ spans under vCPU
multiplexing — plus the two load-bearing contracts: every completed
request's stage durations sum to its measured RTT (±0 in sim time), and
enabling spans leaves fixed-seed results byte-identical.
"""

from __future__ import annotations

import json

import pytest

from repro.core.configs import paper_config
from repro.experiments.testbed import multiplexed_testbed, single_vcpu_testbed
from repro.obs import TraceBus
from repro.obs.export import export_spans_jsonl, perfetto_trace
from repro.obs.pathreport import build_path_report, format_path_report
from repro.obs.render import write_trace
from repro.obs.spans import (
    SPAN_MARK_KIND,
    STAGE_OF_POINT,
    PathTrace,
    SpanRecorder,
    collect_traces,
)
from repro.units import MS
from repro.workloads.ping import PingWorkload

from tests.artifact_checks import check_trace


# ------------------------------------------------------------------ unit


def _recorder(capacity=1024):
    bus = TraceBus(capacity=capacity)
    return bus, SpanRecorder(bus)


class TestSpanRecorder:
    def test_context_allocation_and_marks(self):
        bus, sp = _recorder()
        ctx = sp.new_context(100, "ping", flow="f")
        assert ctx == 1
        sp.mark(150, ctx, "tap_ingress")
        sp.mark(200, ctx, "delivered")
        traces = collect_traces(bus)
        trace = traces[ctx]
        assert [m.point for m in trace.marks] == ["origin", "tap_ingress", "delivered"]
        assert trace.kind == "ping"
        assert trace.complete and not trace.orphaned and not trace.dropped
        assert trace.total_ns == 100

    def test_stages_telescope_to_total(self):
        bus, sp = _recorder()
        ctx = sp.new_context(0, "ping")
        for t, point in ((7, "tap_ingress"), (11, "vhost_rx_pop"), (40, "delivered")):
            sp.mark(t, ctx, point)
        trace = collect_traces(bus)[ctx]
        stages = trace.stages()
        assert sum(s.duration for s in stages) == trace.total_ns == 40
        assert [s.name for s in stages] == ["link.request", "vhost.backlog_wait", "link.reply"]

    def test_deterministic_sampling_no_rng(self):
        bus, sp = SpanRecorder.__new__(SpanRecorder), None  # noqa: F841 - readability
        bus = TraceBus()
        sp = SpanRecorder(bus, sample_every=3)
        ctxs = [sp.new_context(t, "udp-rx") for t in range(9)]
        assert [c is not None for c in ctxs] == [True, False, False] * 3
        assert sp.requested == 9
        assert sp.allocated == 3

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(TraceBus(), sample_every=0)

    def test_drop_terminates_the_path(self):
        bus, sp = _recorder()
        ctx = sp.new_context(0, "ping")
        sp.drop(5, ctx, "unroutable", dst="nowhere")
        trace = collect_traces(bus)[ctx]
        assert trace.dropped and not trace.complete and not trace.orphaned
        assert trace.attr("dropped", "reason") == "unroutable"

    def test_irq_waiters_mark_once_per_episode(self):
        bus, sp = _recorder()
        a = sp.new_context(0, "ping")
        b = sp.new_context(1, "ping")
        sp.irq_wait(a, vm_id=1, vector=33)
        sp.irq_wait(b, vm_id=1, vector=33)
        sp.irq_mark(10, 1, 33, "irq_route", redirected=False)
        sp.irq_mark(11, 1, 33, "irq_route", redirected=False)  # dedup: no double mark
        sp.irq_mark(12, 1, 33, "irq_inject", vcpu=0)
        sp.irq_unwait(a, 1, 33)
        sp.irq_mark(20, 1, 33, "irq_inject", vcpu=0)  # a no longer waits
        traces = collect_traces(bus)
        assert [m.point for m in traces[a].marks] == ["origin", "irq_route", "irq_inject"]
        assert [m.point for m in traces[b].marks] == ["origin", "irq_route", "irq_inject"]
        # Other vectors/VMs are unaffected namespaces.
        sp.irq_mark(30, 2, 33, "irq_route")
        assert len(collect_traces(bus)[b].marks) == 3

    def test_orphaned_span_dies_mid_path(self):
        bus, sp = _recorder()
        ctx = sp.new_context(0, "ping")
        sp.mark(10, ctx, "tap_ingress")
        trace = collect_traces(bus)[ctx]
        assert trace.orphaned and not trace.complete and not trace.dropped

    def test_truncated_by_ring_eviction(self):
        # Capacity 3: the origin and first milestone of ctx 1 are evicted.
        bus, sp = _recorder(capacity=3)
        ctx = sp.new_context(0, "ping")
        sp.mark(10, ctx, "tap_ingress")
        sp.mark(20, ctx, "vhost_rx_pop")
        sp.mark(30, ctx, "rx_ring_push")
        sp.mark(40, ctx, "delivered")
        trace = collect_traces(bus)[ctx]
        assert trace.truncated
        assert not trace.complete  # explicit degradation, not a shorter path
        assert trace.kind is None
        assert [m.point for m in trace.marks] == ["vhost_rx_pop", "rx_ring_push", "delivered"]

    def test_clear_forgets_waiters(self):
        bus, sp = _recorder()
        ctx = sp.new_context(0, "ping")
        sp.irq_wait(ctx, 1, 33)
        sp.clear()
        sp.irq_mark(5, 1, 33, "irq_route")
        assert [m.point for m in collect_traces(bus)[ctx].marks] == ["origin"]


class TestPathReport:
    def test_counts_and_shares(self):
        bus, sp = _recorder()
        a = sp.new_context(0, "ping")
        sp.mark(10, a, "tap_ingress")
        sp.mark(40, a, "delivered")
        b = sp.new_context(100, "ping")
        sp.drop(105, b, "unroutable")
        c = sp.new_context(200, "ping")
        sp.mark(210, c, "tap_ingress")  # orphan
        report = build_path_report(collect_traces(bus).values())
        assert report["counts"] == {
            "total": 3, "complete": 1, "orphaned": 1, "dropped": 1, "truncated": 0,
        }
        assert report["rtt"]["count"] == 1
        assert report["rtt"]["p50_us"] == pytest.approx(0.04)
        shares = [s["share"] for s in report["stages"].values()]
        assert sum(shares) == pytest.approx(1.0)
        text = format_path_report(report)
        assert "1/3 complete" in text and "link.request" in text

    def test_empty_report(self):
        report = build_path_report([])
        assert report["counts"]["total"] == 0
        assert report["rtt"]["count"] == 0
        assert report["stages"] == {}
        assert format_path_report(report)  # renders without dividing by zero


# ----------------------------------------------------------- integration


@pytest.fixture(scope="module")
def ping_run():
    tb = single_vcpu_testbed(paper_config("PI+H"), seed=7)
    tb.sim.enable_spans()
    wl = PingWorkload(tb, tb.tested, interval_ns=2 * MS)
    wl.start()
    tb.run_for(120 * MS)
    return tb, wl


class TestPingPathContract:
    def test_every_rtt_has_a_matching_complete_trace(self, ping_run):
        tb, wl = ping_run
        traces = collect_traces(tb.sim.trace)
        comp = [t for t in traces.values() if t.complete]
        assert len(comp) == len(wl.pinger.rtts_ns) > 0
        # The acceptance criterion: stage durations sum to the measured RTT,
        # ±0 in sim time, for every completed request.
        assert sorted(t.total_ns for t in comp) == sorted(wl.pinger.rtts_ns)
        for trace in comp:
            assert sum(s.duration for s in trace.stages()) == trace.total_ns

    def test_full_taxonomy_on_the_dedicated_core(self, ping_run):
        tb, _ = ping_run
        trace = [t for t in collect_traces(tb.sim.trace).values() if t.complete][0]
        points = [m.point for m in trace.marks]
        assert points == [
            "origin", "tap_ingress", "vhost_rx_pop", "rx_ring_push", "irq_signal",
            "irq_route", "irq_inject", "guest_rx", "guest_tx", "vhost_tx_pop",
            "wire_tx", "delivered",
        ]
        assert all(p in STAGE_OF_POINT or p == "origin" for p in points)
        # PI+H on one dedicated core: TX service mode is recorded per span.
        assert trace.tx_mode in ("notification", "polling")
        assert trace.redirected is False

    def test_span_tree_shape(self, ping_run):
        tb, _ = ping_run
        trace = [t for t in collect_traces(tb.sim.trace).values() if t.complete][0]
        tree = trace.to_span_tree()
        assert tree["name"] == "request/ping"
        assert tree["complete"]
        assert len(tree["children"]) == len(trace.marks) - 1
        assert tree["children"][0]["start"] == tree["start"]
        assert tree["children"][-1]["end"] == tree["end"]


def test_redirected_irq_span_crosses_vcpu_scheduling():
    """Under multiplexing, redirected interrupts land while the affinity
    vCPU is descheduled; the span records the redirect decision and the
    injection wait covers the scheduling gap."""
    tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=3)
    tb.sim.enable_spans()
    wl = PingWorkload(tb, tb.tested, interval_ns=2 * MS)
    wl.start()
    tb.run_for(150 * MS)
    comp = [t for t in collect_traces(tb.sim.trace).values() if t.complete]
    assert comp
    redirected = [t for t in comp if t.redirected]
    assert redirected, "PI+H+R under multiplexing should redirect some RX interrupts"
    for trace in redirected:
        assert trace.attr("irq_route", "target") != trace.attr("irq_route", "orig")
        assert sum(s.duration for s in trace.stages()) == trace.total_ns
    report = build_path_report(comp)
    assert set(report["cohorts"]["redirected"]) >= {"True"}


def test_orphaned_spans_from_unroutable_packets():
    from repro.net.ping import Pinger

    tb = single_vcpu_testbed(paper_config("PI"), seed=5)
    tb.sim.enable_spans()
    # A pinger aimed at an address no device owns: dropped at the bridge.
    pinger = Pinger(tb.external, "lost/ping", guest_addr="no-such-vm", interval_ns=2 * MS)
    pinger.start()
    tb.run_for(20 * MS)
    traces = collect_traces(tb.sim.trace)
    assert traces
    assert all(t.dropped for t in traces.values())
    assert all(t.attr("dropped", "reason") == "unroutable" for t in traces.values())
    report = build_path_report(traces.values())
    assert report["counts"]["dropped"] == report["counts"]["total"]


def test_fixed_seed_results_byte_identical_with_spans_enabled():
    """PR 2's observers-never-participants contract extends to spans."""

    def run(spans: bool):
        tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=11)
        if spans:
            tb.sim.enable_spans()
        wl = PingWorkload(tb, tb.tested, interval_ns=2 * MS)
        wl.start()
        tb.run_for(60 * MS)
        return wl.pinger.rtts_ns, tb.sim.obs.counters.flat(), tb.sim.events_fired

    plain = run(False)
    spanned = run(True)
    assert plain[0] == spanned[0]
    assert plain[1] == spanned[1]
    assert plain[2] == spanned[2]


def test_enable_spans_is_idempotent_and_disableable():
    tb = single_vcpu_testbed(paper_config("PI"), seed=1)
    sp = tb.sim.enable_spans()
    assert tb.sim.enable_spans() is sp
    assert isinstance(tb.sim.trace, TraceBus)
    assert tb.sim.obs.spans is sp
    # Off is an empty slot: the span hooks test ``sim.obs.spans`` for None.
    tb.sim.obs.spans = None
    assert tb.sim.enable_spans() is not sp


def test_enable_spans_keeps_an_existing_bus():
    tb = single_vcpu_testbed(paper_config("PI"), seed=1)
    bus = tb.sim.trace_bus(categories=("span", "sched"))
    sp = tb.sim.enable_spans()
    assert tb.sim.trace is bus
    assert sp.bus is bus


def test_ring_eviction_truncates_live_ping_traces():
    # A ring far smaller than one request's mark count forces truncation.
    tb = single_vcpu_testbed(paper_config("PI+H"), seed=7)
    tb.sim.enable_spans(capacity=8)
    wl = PingWorkload(tb, tb.tested, interval_ns=2 * MS)
    wl.start()
    tb.run_for(30 * MS)
    assert wl.pinger.rtts_ns, "echoes must still flow with a tiny ring"
    traces = collect_traces(tb.sim.trace)
    report = build_path_report(traces.values())
    assert report["counts"]["truncated"] > 0
    assert report["counts"]["complete"] < len(wl.pinger.rtts_ns)


# ---------------------------------------------------------------- exports


def test_perfetto_export_is_valid_trace_event_json(ping_run, tmp_path):
    tb, _ = ping_run
    traces = list(collect_traces(tb.sim.trace).values())
    path = tmp_path / "trace.perfetto.json"
    doc = perfetto_trace(traces, bus=tb.sim.trace)
    write_trace(doc, str(path))
    assert json.loads(path.read_text()) == doc
    events = check_trace(doc, phases="XMi")
    # Spans, per-request thread names, and X events are all present.
    assert any(e["ph"] == "X" and e.get("cat") == "span" for e in events)
    names = [e["args"]["name"] for e in events if e["name"] == "thread_name"]
    assert any(n.startswith("req ") for n in names)

    # One complete request renders one root span + one X event per stage.
    trace = [t for t in traces if t.complete][0]
    own = [e for e in events if e["ph"] == "X" and e.get("tid") == trace.ctx and e["pid"] == 1]
    assert len(own) == 1 + len(trace.stages())


def test_perfetto_sched_and_mode_switch_tracks():
    tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=3)
    tb.sim.enable_spans()
    wl = PingWorkload(tb, tb.tested, interval_ns=2 * MS)
    wl.start()
    tb.run_for(80 * MS)
    doc = perfetto_trace(collect_traces(tb.sim.trace).values(), bus=tb.sim.trace)
    cats = {e.get("cat") for e in doc["traceEvents"]}
    assert "sched" in cats, "vCPU online intervals missing"
    assert "mode_switch" in cats, "hybrid mode-switch instants missing"
    online = [e for e in doc["traceEvents"] if e.get("cat") == "sched" and e["ph"] == "X"]
    assert online and all(e["dur"] >= 0 for e in online)


def test_spans_jsonl_export(ping_run, tmp_path):
    tb, _ = ping_run
    traces = list(collect_traces(tb.sim.trace).values())
    path = tmp_path / "spans.jsonl"
    n = export_spans_jsonl(traces, str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == n == len(traces)
    assert rows[0]["ctx"] == min(t.ctx for t in traces)
    assert all(r["children"] for r in rows if r["complete"])


def test_span_marks_share_the_bus_with_other_categories():
    bus = TraceBus()
    bus.record(1, SPAN_MARK_KIND, ctx=1, point="origin", req="ping")
    bus.record(2, "vm-exit", reason="hlt")
    assert [e.category for e in bus.events] == ["span", "exit"]
    traces = collect_traces(bus)
    assert isinstance(traces[1], PathTrace)
