"""Unit tests for the event queue and simulator clock."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.event import EventQueue
from repro.sim.simulator import Simulator
from repro.units import MS, US
from tests.conftest import fire


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        out = []
        q.push(30, out.append, ("c",))
        q.push(10, out.append, ("a",))
        q.push(20, out.append, ("b",))
        while True:
            entry = q.pop()
            if entry is None:
                break
            fire(entry)
        assert out == ["a", "b", "c"]

    def test_fifo_within_same_time(self):
        q = EventQueue()
        order = []
        for i in range(5):
            q.push(100, order.append, (i,))
        while (entry := q.pop()) is not None:
            fire(entry)
        assert order == [0, 1, 2, 3, 4]

    def test_len_counts_live_events(self):
        q = EventQueue()
        entries = [q.push(i, lambda: None) for i in range(4)]
        assert len(q) == 4
        assert q.cancel(entries[1]) is True
        assert len(q) == 3

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        hit = []
        entry = q.push(5, hit.append, (1,))
        q.push(6, hit.append, (2,))
        q.cancel(entry)
        nxt = q.pop()
        assert nxt[0] == 6
        assert q.pop() is None

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(7, lambda: None)
        assert q.peek_time() == 7

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None


class TestSimulator:
    def test_schedule_and_run(self, sim):
        hits = []
        sim.schedule(10, hits.append, "x")
        sim.schedule(5, hits.append, "y")
        sim.run_until(20)
        assert hits == ["y", "x"]
        assert sim.now == 20

    def test_clock_advances_to_event_times(self, sim):
        times = []
        sim.schedule(3, lambda: times.append(sim.now))
        sim.schedule(9, lambda: times.append(sim.now))
        sim.run_until(100)
        assert times == [3, 9]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_at_in_past_rejected(self, sim):
        sim.run_until(50)
        with pytest.raises(SimulationError):
            sim.at(10, lambda: None)

    def test_cancel_prevents_firing(self, sim):
        hits = []
        ev = sim.schedule(10, hits.append, 1)
        assert sim.cancel(ev) is True
        assert sim.cancel(ev) is False  # idempotent
        sim.run_until(20)
        assert hits == []

    def test_events_scheduled_during_run(self, sim):
        hits = []

        def chain(n):
            hits.append(n)
            if n < 3:
                sim.schedule(10, chain, n + 1)

        sim.schedule(0, chain, 0)
        sim.run_until(MS)
        assert hits == [0, 1, 2, 3]

    def test_run_for_is_relative(self, sim):
        sim.run_for(5 * US)
        assert sim.now == 5 * US
        sim.run_for(5 * US)
        assert sim.now == 10 * US

    def test_call_soon_runs_at_current_instant(self, sim):
        sim.run_until(100)
        hits = []
        sim.call_soon(hits.append, sim.now)
        sim.run_until(100)
        assert hits == [100]

    def test_run_until_empty_guard(self, sim):
        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(SimulationError):
            sim.run_until_empty(max_events=100)

    def test_run_until_empty_exact_budget(self, sim):
        # Regression: the queue draining on exactly the max_events-th step
        # is a clean finish, not a runaway simulation.
        hits = []
        for i in range(5):
            sim.schedule(i + 1, hits.append, i)
        sim.run_until_empty(max_events=5)
        assert hits == [0, 1, 2, 3, 4]
        assert len(sim.queue) == 0

    def test_run_until_empty_one_over_budget_raises(self, sim):
        for i in range(6):
            sim.schedule(i + 1, lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until_empty(max_events=5)

    def test_run_loop_keeps_externally_held_events(self):
        """A handle kept by user code stays that event: no identity reuse."""
        sim = Simulator(seed=0)
        held = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run_until(15)
        assert held[2] is None  # fired: the run loop cleared its callback
        later = sim.schedule(30, lambda: None)
        assert later is not held
        # The held handle is still its own (fired) event, not the new one:
        # cancelling it is a no-op and leaves the new event pending.
        assert held[0] == 10
        assert sim.cancel(held) is False
        assert len(sim.queue) == 2
        sim.run_until(50)
        assert sim.events_fired == 3

    def test_events_fired_counter(self, sim):
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run_until(100)
        assert sim.events_fired == 7

    def test_deterministic_rng_streams(self):
        a = Simulator(seed=7).rng.stream("x").random()
        b = Simulator(seed=7).rng.stream("x").random()
        c = Simulator(seed=8).rng.stream("x").random()
        assert a == b
        assert a != c

    def test_rng_streams_independent_of_creation_order(self):
        s1 = Simulator(seed=3)
        s1.rng.stream("a")
        v1 = s1.rng.stream("b").random()
        s2 = Simulator(seed=3)
        v2 = s2.rng.stream("b").random()  # no prior stream("a")
        assert v1 == v2


class TestFusionAccounting:
    def test_fused_segments_keep_logical_event_count(self):
        """events_fired counts fused completions; results stay identical."""
        from repro.core.configs import paper_config
        from repro.experiments.runner import measure_window
        from repro.experiments.testbed import single_vcpu_testbed
        from repro.workloads.netperf import NetperfTcpSend

        runs = []
        for _ in range(2):
            tb = single_vcpu_testbed(paper_config("PI", quota=4), seed=3)
            wl = NetperfTcpSend(tb, tb.tested, n_streams=1, payload_size=1024)
            run = measure_window(tb, wl, 5 * MS, 10 * MS, config_name="PI")
            runs.append((run.throughput_gbps, tb.sim.events_fired, tb.sim.events_inlined))
        assert runs[0] == runs[1]  # deterministic, including the split
        _, fired, inlined = runs[0]
        assert 0 < inlined < fired  # fusion engaged, but not everything fuses
