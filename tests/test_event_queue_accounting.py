"""Live-count accounting and ordering of the two-lane event queue.

Regression focus: ``EventQueue.cancel`` called directly (bypassing
``Simulator.cancel``) must keep ``len(queue)`` in sync, cancelling a fired
entry must change nothing, and the batched prune of cancelled entries must
never change the observable pop order.
"""

from __future__ import annotations

from repro.sim.event import EventQueue, _PRUNE_THRESHOLD
from repro.sim.simulator import Simulator
from tests.conftest import fire


class TestDirectCancelAccounting:
    def test_direct_cancel_updates_len(self):
        q = EventQueue()
        entries = [q.push(i, lambda: None) for i in range(4)]
        assert len(q) == 4
        # EventQueue.cancel(), not Simulator.cancel().
        q.cancel(entries[1])
        assert len(q) == 3
        q.cancel(entries[2])
        assert len(q) == 2

    def test_direct_cancel_is_idempotent_for_len(self):
        q = EventQueue()
        entry = q.push(5, lambda: None)
        other = q.push(6, lambda: None)
        assert q.cancel(entry) is True
        assert q.cancel(entry) is False
        assert q.cancel(entry) is False
        assert len(q) == 1
        assert q.pop() is other

    def test_simulator_cancel_and_direct_cancel_agree(self):
        sim = Simulator(seed=0)
        a = sim.schedule(10, lambda: None)
        b = sim.schedule(20, lambda: None)
        sim.cancel(a)
        sim.queue.cancel(b)
        assert len(sim.queue) == 0
        sim.run_until(100)
        assert sim.events_fired == 0

    def test_cancel_after_fire_is_noop(self):
        q = EventQueue()
        entry = q.push(1, lambda: None)
        assert q.pop() is entry
        fire(entry)
        assert q.cancel(entry) is False  # already fired: no live-count change
        assert len(q) == 0
        # The same through the simulator's run loop, with a live event left.
        sim = Simulator(seed=0)
        fired = sim.schedule(1, lambda: None)
        sim.schedule(5, lambda: None)
        sim.run_until(2)
        assert sim.cancel(fired) is False
        assert len(sim.queue) == 1
        sim.run_until(10)
        assert sim.events_fired == 2

    def test_cancel_after_step_is_noop(self):
        sim = Simulator(seed=0)
        first = sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        assert sim.step()
        assert sim.cancel(first) is False
        assert len(sim.queue) == 1
        sim.run_until_empty()
        assert sim.events_fired == 2

    def test_fifo_lane_direct_cancel(self):
        q = EventQueue()
        entry = q.push_soon(0, lambda: None)
        keep = q.push_soon(0, lambda: None)
        q.cancel(entry)
        assert len(q) == 1
        assert q.pop() is keep
        assert q.pop() is None


class TestBatchedPrune:
    def test_prune_removes_dead_heap_entries(self):
        q = EventQueue()
        entries = [q.push(i, lambda: None) for i in range(3 * _PRUNE_THRESHOLD)]
        for entry in entries[: 2 * _PRUNE_THRESHOLD]:
            q.cancel(entry)
        # Dead entries dominated at some point, so the heap was rebuilt.
        assert len(q) == _PRUNE_THRESHOLD
        assert len(q._heap) < 3 * _PRUNE_THRESHOLD
        # Pop order of the survivors is unchanged.
        times = []
        while (entry := q.pop()) is not None:
            times.append(entry[0])
        assert times == list(range(2 * _PRUNE_THRESHOLD, 3 * _PRUNE_THRESHOLD))

    def test_prune_keeps_fifo_survivors(self):
        q = EventQueue()
        fifo_keep = q.push_soon(0, lambda: None)
        entries = [q.push(i + 1, lambda: None) for i in range(3 * _PRUNE_THRESHOLD)]
        for entry in entries:
            q.cancel(entry)
        assert len(q) == 1
        assert q.pop() is fifo_keep

    def test_peek_time_skips_cancelled_heads(self):
        q = EventQueue()
        first = q.push(1, lambda: None)
        q.push(2, lambda: None)
        q.cancel(first)
        assert q.peek_time() == 2
