"""Tests for windowed telemetry (repro.obs.timeline) and the watchdog.

Covers the load-bearing contracts the timeline layer ships with: windowed
rates are exactly counter deltas scaled by the true window length, the
sampler is an observer (fixed-seed simulated results are byte-identical
with it on or off), the invariant watchdog catches an injected
conservation-law violation within one window, and a clean paper-shaped
run produces zero violations with residency fractions that partition
every window.
"""

from __future__ import annotations

import pytest

from repro.core.configs import paper_config
from repro.experiments.testbed import multiplexed_testbed, single_vcpu_testbed
from repro.obs.timeline import DEFAULT_WINDOW_NS, TimelineSampler, WindowSample, downsample
from repro.obs.watchdog import InvariantWatchdog, WatchdogError
from repro.units import MS
from repro.workloads.ping import PingWorkload


class _Box:
    """A minimal attribute-provider counter group."""

    def __init__(self):
        self.hits = 0


# ------------------------------------------------------------------ unit


def test_window_rates_are_hand_computed_deltas(sim):
    box = _Box()
    sim.obs.counters.register("kvm.unit", box, ("hits",))
    tl = TimelineSampler(sim, window_ns=1000, prefixes=("kvm",))
    tl.start()

    def bump(n):
        box.hits += n

    # window [0, 1000): +1 +2; [1000, 2000): +4; [2000, 3000): +8
    for t, n in ((100, 1), (600, 2), (1500, 4), (2100, 8)):
        sim.at(t, bump, n)
    seen = []
    tl.add_listener(lambda sample, prev, cur: seen.append(
        (sample.t_end, prev.get("kvm.unit.hits", 0), cur["kvm.unit.hits"])))
    sim.run_for(3000)
    tl.stop()

    assert [s.deltas["kvm.unit.hits"] for s in tl.samples] == [3, 4, 8]
    for s in tl.samples:
        assert s.window_ns == 1000
        assert s.rates["kvm.unit.hits"] == s.deltas["kvm.unit.hits"] * 1e9 / 1000
    # listener sees the same flat snapshots the deltas were computed from
    assert seen == [(1000, 0, 3), (2000, 3, 7), (3000, 7, 15)]
    # window queries agree with the samples
    assert tl.window(1000, 3000) == tl.samples[1:]


def test_stop_closes_a_partial_final_window(sim):
    box = _Box()
    sim.obs.counters.register("kvm.unit", box, ("hits",))
    tl = TimelineSampler(sim, window_ns=1000, prefixes=("kvm",))
    tl.start()
    sim.at(1200, lambda: setattr(box, "hits", 5))
    sim.run_for(1500)
    tl.stop()
    assert len(tl) == 2
    last = tl.samples[-1]
    assert (last.t_start, last.t_end, last.window_ns) == (1000, 1500, 500)
    assert last.deltas["kvm.unit.hits"] == 5
    assert last.rates["kvm.unit.hits"] == 5 * 1e9 / 500
    # stop cancelled the pending boundary event: the queue drains
    sim.run_until_empty()


def test_gauges_and_residency_fractions(sim):
    tl = TimelineSampler(sim, window_ns=1000, prefixes=())
    depth = []
    tl.add_gauge("unit.depth", depth.__len__)
    # a cumulative source that spends exactly a quarter of all time "on"
    tl.add_residency("unit.on", lambda now: 0.25 * now)
    tl.start()
    sim.at(1500, lambda: depth.extend([1, 2, 3]))
    sim.run_for(2000)
    tl.stop()
    assert [s.gauges["unit.depth"] for s in tl.samples] == [0.0, 3.0]
    for s in tl.samples:
        assert s.gauges["unit.on"] == pytest.approx(0.25)


def test_sampler_rejects_nonpositive_window(sim):
    with pytest.raises(ValueError):
        TimelineSampler(sim, window_ns=0)


def test_snapshot_group_matches_on_separator_boundary(sim):
    c = sim.obs.counters
    c.register("kvm.vm", _Box(), ("hits",))
    c.register("kvm.vm.tested.exits", _Box(), ("hits",))
    c.register("kvm.vmx", _Box(), ("hits",))
    got = c.snapshot_group("kvm.vm")
    # exact path and "."-boundary extensions match; "kvm.vmx" must not
    assert set(got) == {"kvm.vm", "kvm.vm.tested.exits"}
    # the cached path set is invalidated by registration changes
    c.register("kvm.vm.other", _Box(), ("hits",))
    assert "kvm.vm.other" in c.snapshot_group("kvm.vm")
    c.unregister_prefix("kvm.vm.tested.")
    assert set(c.snapshot_group("kvm.vm")) == {"kvm.vm", "kvm.vm.other"}


def test_downsample_preserves_deltas_and_recomputes_rates():
    samples = [
        WindowSample(i * 100, (i + 1) * 100, {"k": i}, {"k": i * 1e9 / 100},
                     {"g": float(i)})
        for i in range(10)
    ]
    out = downsample(samples, 4)
    assert len(out) == 4
    assert out[0].t_start == 0 and out[-1].t_end == 1000
    assert sum(s.deltas["k"] for s in out) == sum(range(10))
    for s in out:
        # merged rate is the true average over the merged span
        assert s.rates["k"] == s.deltas["k"] * 1e9 / s.window_ns
    # gauges take the last window's value in each bucket
    assert [s.gauges["g"] for s in out] == [2.0, 5.0, 8.0, 9.0]
    # no-op when already small enough
    assert downsample(samples, 100) == samples


# -------------------------------------------------------------- watchdog unit


def test_watchdog_monotonic_check_is_fatal_when_asked(sim):
    wd = InvariantWatchdog(sim, fatal=True)
    sample = WindowSample(0, DEFAULT_WINDOW_NS, {}, {}, {})
    with pytest.raises(WatchdogError, match="counter-monotonic"):
        wd.check_window(sample, {"kvm.x": 5}, {"kvm.x": 3})
    assert wd.windows_checked == 1
    v = wd.violations[0]
    assert v.invariant == "counter-monotonic" and v.subject == "kvm.x"
    assert v.as_dict()["details"] == {"before": 5, "after": 3}


def test_watchdog_warns_in_nonfatal_mode(sim):
    wd = InvariantWatchdog(sim, fatal=False)
    sample = WindowSample(0, DEFAULT_WINDOW_NS, {}, {}, {})
    with pytest.warns(RuntimeWarning, match="counter-monotonic"):
        found = wd.check_window(sample, {"kvm.x": 5}, {"kvm.x": 3})
    assert len(found) == 1 and len(wd.violations) == 1


def test_watchdog_residency_sum_check(sim):
    wd = InvariantWatchdog(sim, fatal=True)
    wd.add_residency("vhost.dev/tx", ("a", "b"))
    good = WindowSample(0, 1000, {}, {}, {"a": 0.25, "b": 0.75})
    assert wd.check_window(good, {}, {}) == []
    bad = WindowSample(1000, 2000, {}, {}, {"a": 0.25, "b": 0.5})
    with pytest.raises(WatchdogError, match="residency-sum"):
        wd.check_window(bad, {}, {})


# ----------------------------------------------------------------- integration


def test_enable_timeline_is_idempotent_and_disableable():
    tb = single_vcpu_testbed(paper_config("PI"), seed=1)
    tl = tb.enable_timeline()
    assert tb.enable_timeline() is tl
    assert tb.sim.obs.timeline is tl and tl.running
    assert tb.sim.obs.watchdog is not None
    # Off is an empty slot: stop the sampler and clear it.
    tl.stop()
    tb.sim.obs.timeline = None
    assert tb.enable_timeline() is not tl


def test_fixed_seed_results_byte_identical_with_timeline_enabled():
    """PR 2's observers-never-participants contract extends to the sampler.

    The boundary events do change ``events_fired`` (unlike spans, the
    sampler schedules its own events), so the contract is on the
    *simulated metrics*: RTT series and the full counter registry.
    """

    def run(timeline: bool):
        tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=11)
        if timeline:
            tb.enable_timeline()
        wl = PingWorkload(tb, tb.tested, interval_ns=2 * MS)
        wl.start()
        tb.run_for(60 * MS)
        return list(wl.pinger.rtts_ns), tb.sim.obs.counters.flat()

    plain = run(False)
    sampled = run(True)
    assert plain[0] == sampled[0]
    assert plain[1] == sampled[1]


def test_clean_run_has_no_violations_and_residency_partitions_windows():
    # Fatal mode is on (conftest), so merely completing proves zero
    # violations — the explicit asserts document what was checked.
    tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=3)
    tl = tb.enable_timeline()
    wl = PingWorkload(tb, tb.tested, interval_ns=2 * MS)
    wl.start()
    tb.run_for(40 * MS)
    tl.stop()
    wd = tb.sim.obs.watchdog
    assert wd.windows_checked >= len(tl.samples) > 0
    assert wd.violations == []
    notif_ids = sorted({mid for s in tl.samples for mid in s.gauges
                        if mid.endswith(".residency.notification")})
    assert notif_ids  # the hybrid TX handler was wired in
    checked = 0
    for s in tl.samples:
        for nid in notif_ids:
            if nid not in s.gauges:
                continue
            pid = nid.replace(".notification", ".polling")
            total = s.gauges[nid] + s.gauges[pid]
            assert total == pytest.approx(1.0, abs=1e-9)
            assert 0.0 <= s.gauges[nid] <= 1.0
            checked += 1
    assert checked > 0


def test_late_enable_measures_residency_from_the_enable_instant():
    # A sampler started after a warm-up must not charge the warm-up to
    # its first window (fatal watchdog: a residency-sum violation raises).
    tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=3)
    wl = PingWorkload(tb, tb.tested, interval_ns=1 * MS)
    wl.start()
    tb.run_for(50 * MS)
    tl = tb.enable_timeline()
    tb.run_for(1 * MS)
    tl.stop()
    residency = [v for s in tl.samples for mid, v in s.gauges.items()
                 if ".residency." in mid]
    assert residency
    assert all(0.0 <= v <= 1.0 for v in residency)


def test_watchdog_catches_injected_conservation_violation():
    tb = multiplexed_testbed(paper_config("PI+H+R", quota=4), seed=7)
    tb.enable_timeline()
    device = tb.tested.device

    def corrupt():
        # Phantom wire arrivals: tap_enqueued claims packets that never
        # reached the RX ring or backlog, breaking rx-conservation.
        device.tap_enqueued += 5

    tb.sim.schedule(250_000, corrupt)
    wl = PingWorkload(tb, tb.tested, interval_ns=2 * MS)
    wl.start()
    with pytest.raises(WatchdogError, match="rx-conservation") as exc:
        tb.run_for(10 * MS)
    assert device.name in str(exc.value)
    assert any(v.invariant == "rx-conservation"
               for v in tb.sim.obs.watchdog.violations)
