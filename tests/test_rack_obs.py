"""Rack-scale observability: stitching, aggregation, fault handling.

The contracts under test:

* **observer identity** — the rack's ``simulated`` block is
  byte-identical with rack telemetry on or off, at 1, 2 and 4 shards;
  and the shipped span marks themselves are layout-invariant.
* **compact report** — the report carries the analytical view only; the
  raw per-host bundles stay on the coordinator for the Perfetto export.
* **stitching** — cross-shard span marks merge into end-to-end traces
  whose telescoping stages sum *exactly* to the stitched RTT, whose
  fabric stages respect the propagation bound, and which touch both the
  client and the server host.
* **fault handling** — a shard worker that raises or is killed outright
  surfaces as a prompt, descriptive :class:`ClusterError`, never a hang.
* the pure aggregation helpers (barrier profile, steady rates per
  family) compute what they claim on synthetic inputs.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.cluster import (
    RackTelemetry,
    ShardedSimulator,
    reduced_rack_spec,
    run_rack_once,
    simulated_digest,
)
from repro.errors import ClusterError
from repro.obs.rack import (
    StitchedTrace,
    aggregate_timelines,
    barrier_profile,
    rack_perfetto_trace,
    render_rack_dashboard,
    stitch_marks,
    stitched_path_report,
)
from repro.obs.spans import Mark
from repro.units import MS

from tests.artifact_checks import check_page, check_trace

WARMUP = 1 * MS
MEASURE = 3 * MS


@pytest.fixture(scope="module")
def rack_runs():
    """One telemetry-off reference and telemetry-on runs at 1/2/4 shards:
    ``spec, off, on, bundles`` with the reports and the coordinators'
    per-host bundles keyed by shard count."""
    spec = reduced_rack_spec(cpu_burn=False)
    off = run_rack_once(spec, 1, MEASURE, warmup_ns=WARMUP)
    on, bundles = {}, {}
    for n in (1, 2, 4):
        sim = ShardedSimulator(spec, n_shards=n, telemetry=RackTelemetry())
        on[n] = sim.run(MEASURE, warmup_ns=WARMUP)
        bundles[n] = sim.host_telemetry
    return spec, off, on, bundles


def _marks(bundles):
    return {host: bundle["span_marks"] for host, bundle in bundles.items()}


# ------------------------------------------------------------ observer law
def test_telemetry_is_observer_only_at_every_layout(rack_runs):
    spec, off, on, _bundles = rack_runs
    reference = simulated_digest(off)
    for n, report in on.items():
        assert simulated_digest(report) == reference, f"{n} shards diverged"
        assert "telemetry" in report
    assert "telemetry" not in off


def test_span_marks_are_layout_invariant(rack_runs):
    _spec, _off, _on, bundles = rack_runs
    sigs = {n: json.dumps(_marks(b), sort_keys=True) for n, b in bundles.items()}
    assert sigs[1] == sigs[2] == sigs[4]


def test_report_carries_only_the_compact_view(rack_runs):
    """The raw marks and windows stay on the coordinator; the report's
    timeline is the per-host steady rates alone."""
    spec, _off, on, bundles = rack_runs
    for n, report in on.items():
        telemetry = report["telemetry"]
        assert "raw" not in telemetry
        assert set(telemetry["timeline"]) == {"steady"}
        assert set(telemetry["timeline"]["steady"]) == set(spec.server_hosts)
        assert set(bundles[n]) == set(spec.hosts)


# --------------------------------------------------------------- stitching
def test_stitched_traces_telescope_exactly(rack_runs):
    spec, _off, _on, bundles = rack_runs
    traces = stitch_marks(_marks(bundles[4]), spec.hosts)
    complete = [t for t in traces.values() if t.complete]
    assert complete, "no complete stitched traces"
    for trace in complete:
        assert sum(s.duration for s in trace.stages()) == trace.total_ns
        hosts = trace.hosts()
        # a rack round trip starts on a client and visits a server host
        assert hosts[0].startswith("c")
        assert any(h.startswith("h") for h in hosts)
        # request and reply each cross the fabric once, and each transit
        # takes at least the propagation delay
        fabric = [s for s in trace.stages() if s.name == "rack.fabric"]
        assert len(fabric) == 2
        for stage in fabric:
            assert stage.duration >= spec.propagation_ns


def test_stitched_path_report_counts(rack_runs):
    spec, _off, on, _bundles = rack_runs
    report = on[2]["telemetry"]["paths"]
    counts = report["counts"]
    assert counts["complete"] > 0
    assert counts["dropped"] == 0 and counts["truncated"] == 0
    cross = report["cross_host"]
    assert cross["complete_multi_host"] == counts["complete"]
    assert cross["telescoping_exact"] == counts["complete"]
    assert cross["xshard_hops_mean"] == pytest.approx(2.0)
    assert report["rtt"]["p50_us"] > 0
    # the fabric stage is in the table and costs >= 2x propagation
    assert report["stages"]["rack.fabric"]["mean_us"] >= \
        spec.propagation_ns / 1e3


def test_stitched_trace_requires_delivered_terminal():
    # sock_deliver terminates a single-host inbound trace, but in a rack
    # it is the server consuming the request mid-path: not complete.
    mid = StitchedTrace("c0#1", [
        Mark(0, "origin", {"shard_host": "c0"}),
        Mark(100, "sock_deliver", {"shard_host": "h0"}),
    ])
    assert not mid.complete and mid.orphaned
    full = StitchedTrace("c0#2", [
        Mark(0, "origin", {"shard_host": "c0"}),
        Mark(100, "sock_deliver", {"shard_host": "h0"}),
        Mark(200, "delivered", {"shard_host": "c0"}),
    ])
    assert full.complete and not full.orphaned
    assert full.hosts() == ["c0", "h0"]


def test_stitch_merge_order_is_layout_free():
    # Same marks presented under different per-host dict orderings must
    # produce identical traces (sort key: t, host rank, record index).
    marks_a = {"c0": [(0, "c0#1", "origin", {}), (50, "c0#1", "delivered", {})],
               "h0": [(10, "c0#1", "xshard_rx", {"src": "c0"})]}
    marks_b = {"h0": marks_a["h0"], "c0": marks_a["c0"]}
    t_a = stitch_marks(marks_a, ("h0", "c0"))["c0#1"]
    t_b = stitch_marks(marks_b, ("h0", "c0"))["c0#1"]
    assert [m.point for m in t_a.marks] == ["origin", "xshard_rx", "delivered"]
    assert t_a.marks == t_b.marks
    report = stitched_path_report([t_a])
    assert report["counts"]["complete"] == 1


# ------------------------------------------------------------- aggregation
def test_aggregate_timelines_sums_families_across_hosts():
    tl = {
        "h0": {"windows": [
            {"t_start": 0, "t_end": 1000,
             "deltas": {"kvm.exits.MSR_WRITE": 10, "vhost.vm/virtio-net/tx.packets": 4}},
            {"t_start": 1000, "t_end": 1500, "deltas": {"kvm.exits.HLT": 5}}]},
        "h1": {"windows": [
            {"t_start": 0, "t_end": 1000,
             "deltas": {"kvm.exits.HLT": 5, "untracked.key": 99}}]},
        "c0": {"windows": []},
    }
    steady = aggregate_timelines(tl)["steady"]
    # each host's family deltas over its whole span: 15 exits in 1.5 us on
    # h0; untracked keys and hosts without windows are left out
    assert steady == {
        "h0": {"net_tx_pkts": pytest.approx(4 / 1.5e-6),
               "vm_exits": pytest.approx(15 / 1.5e-6)},
        "h1": {"vm_exits": pytest.approx(5 * 1e6)},
    }


def test_barrier_profile_straggler_attribution():
    records = [
        [{"wall_s": 0.002, "events": 10.0, "wait_s": 0.0},
         {"wall_s": 0.002, "events": 20.0, "wait_s": 0.001}],
        [{"wall_s": 0.001, "events": 5.0, "wait_s": 0.0},
         {"wall_s": 0.001, "events": 5.0, "wait_s": 0.002}],
    ]
    prof = barrier_profile(records, [("h0",), ("c0",)], lookahead_ns=50_000)
    assert prof["windows"] == 2
    assert prof["straggler_shard"] == 0          # shard 0 bounds both windows
    s0, s1 = prof["per_shard"]
    assert s0["windows_bound"] == 2 and s1["windows_bound"] == 0
    assert s0["lookahead_utilization"] == 1.0    # events grew both windows
    assert s1["lookahead_utilization"] == 0.5    # idle second window
    assert s1["barrier_wait_s"] == pytest.approx(0.002)
    assert prof["critical_wall_s"] == pytest.approx(0.004)
    assert prof["heat"] and len(prof["heat"][0]["wall_us"]) == 2


def test_rack_report_barrier_block(rack_runs):
    spec, _off, on, _bundles = rack_runs
    barrier = on[4]["telemetry"]["barrier"]
    assert barrier["windows"] == (WARMUP + MEASURE) // spec.lookahead_ns
    assert len(barrier["per_shard"]) == 4
    assert barrier["straggler_shard"] in range(4)
    bound_total = sum(s["windows_bound"] for s in barrier["per_shard"])
    assert bound_total == barrier["windows"]
    for shard in barrier["per_shard"]:
        assert 0.0 < shard["lookahead_utilization"] <= 1.0


def test_rack_telemetry_per_host_block(rack_runs):
    spec, _off, on, _bundles = rack_runs
    tel = on[2]["telemetry"]
    assert set(tel["per_host"]) == set(spec.hosts)
    for host, entry in tel["per_host"].items():
        if host.startswith("c"):
            # spans are allocated at the origin, i.e. on client hosts only;
            # server hosts just add marks to contexts that arrive by wire
            assert entry["spans"]["allocated"] > 0
        if host.startswith("h"):
            assert entry["watchdog"]["violations"] == 0
            assert entry["watchdog"]["windows_checked"] > 0
    assert tel["watchdog"]["violations"] == 0
    assert tel["watchdog"]["windows_checked"] > 0


# --------------------------------------------------------------- surfacing
def test_rack_perfetto_export(rack_runs):
    _spec, _off, on, bundles = rack_runs
    events = check_trace(rack_perfetto_trace(on[2], bundles[2]), phases="MXCi")
    pids = {e["pid"] for e in events}
    assert 1 in pids          # stitched request paths
    assert 2 in pids          # cross-shard fabric transits
    assert {100, 101} <= pids  # one telemetry track group per shard


def test_rack_dashboard_renders(rack_runs):
    _spec, _off, on, _bundles = rack_runs
    html_doc = render_rack_dashboard(on[4])
    check_page(html_doc)
    assert "Barrier-wait heat" in html_doc
    assert "Stitched-path stage" in html_doc
    assert "steady rates" in html_doc
    assert "rack.fabric" in html_doc


def test_rack_claims_hold_and_each_breaks_alone(rack_runs):
    """The flow's rack claims pass on real telemetry-on cells, and a cell
    that breaks one telemetry claim fails exactly that claim."""
    from repro.experiments.claims import failed_claims

    spec, _off, on, _bundles = rack_runs
    grid = {(spec.config, n): report for n, report in on.items()}
    for mode in ("reduced", "full"):
        assert failed_claims("rack", grid, mode) == []

    def broken(report, block, key, value):
        tel = report["telemetry"]
        if block == "paths":
            part = {**tel["paths"], "cross_host": {**tel["paths"]["cross_host"], key: value}}
        else:
            part = {**tel["watchdog"], key: value}
        return {**report, "telemetry": {**tel, block: part}}

    cell = (spec.config, 4)
    for block, key, value, name in (
        ("paths", "complete_multi_host", 0,
         "every cell stitches complete multi-host request paths"),
        ("watchdog", "violations", 1,
         "every cell's rack watchdog checks windows and finds 0 violations"),
    ):
        bad = {**grid, cell: broken(grid[cell], block, key, value)}
        for mode in ("reduced", "full"):
            assert failed_claims("rack", bad, mode) == [name], (name, mode)


# ----------------------------------------------------------- fault handling
_needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault injection monkeypatches the worker via fork inheritance",
)


@_needs_fork
def test_worker_exception_fails_fast_with_traceback(monkeypatch):
    import repro.cluster.shard as shard_mod

    spec = reduced_rack_spec(cpu_burn=False)
    orig = shard_mod.Shard.run_window

    def boom(self, t_end, inbound):
        if t_end > 5 * spec.lookahead_ns:
            raise RuntimeError("injected shard failure")
        return orig(self, t_end, inbound)

    monkeypatch.setattr(shard_mod.Shard, "run_window", boom)
    with pytest.raises(ClusterError, match="injected shard failure"):
        run_rack_once(spec, 2, 2 * MS)


@_needs_fork
def test_killed_worker_reports_shard_and_exitcode(monkeypatch):
    import repro.cluster.shard as shard_mod

    spec = reduced_rack_spec(cpu_burn=False)
    orig = shard_mod.Shard.run_window

    def die(self, t_end, inbound):
        if t_end > 5 * spec.lookahead_ns:
            os._exit(23)     # no error handler, no reply: pipe just closes
        return orig(self, t_end, inbound)

    monkeypatch.setattr(shard_mod.Shard, "run_window", die)
    with pytest.raises(ClusterError, match="died without reply"):
        run_rack_once(spec, 2, 2 * MS)
