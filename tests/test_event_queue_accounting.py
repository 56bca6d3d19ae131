"""Live-count accounting and ordering of the two-lane event queue.

Regression focus: ``Event.cancel()`` called directly (bypassing
``Simulator.cancel``) must keep ``len(queue)`` in sync, and the batched
prune of cancelled entries must never change the observable pop order.
"""

from __future__ import annotations

from repro.sim.event import EventQueue, _PRUNE_THRESHOLD
from repro.sim.simulator import Simulator


class TestDirectCancelAccounting:
    def test_direct_cancel_updates_len(self):
        q = EventQueue()
        evs = [q.push(i, lambda: None) for i in range(4)]
        assert len(q) == 4
        # Direct Event.cancel(), not Simulator.cancel().
        evs[1].cancel()
        assert len(q) == 3
        evs[2].cancel()
        assert len(q) == 2

    def test_direct_cancel_is_idempotent_for_len(self):
        q = EventQueue()
        ev = q.push(5, lambda: None)
        other = q.push(6, lambda: None)
        ev.cancel()
        ev.cancel()
        ev.cancel()
        assert len(q) == 1
        assert q.pop() is other

    def test_simulator_cancel_and_direct_cancel_agree(self):
        sim = Simulator(seed=0)
        a = sim.schedule(10, lambda: None)
        b = sim.schedule(20, lambda: None)
        sim.cancel(a)
        b.cancel()
        assert len(sim.queue) == 0
        sim.run_until(100)
        assert sim.events_fired == 0

    def test_cancel_after_fire_is_noop(self):
        q = EventQueue()
        ev = q.push(1, lambda: None)
        assert q.pop() is ev
        ev.cancel()  # already fired: must not touch the live count
        assert len(q) == 0

    def test_fifo_lane_direct_cancel(self):
        q = EventQueue()
        ev = q.push_soon(0, lambda: None)
        keep = q.push_soon(0, lambda: None)
        ev.cancel()
        assert len(q) == 1
        assert q.pop() is keep
        assert q.pop() is None

    def test_cleared_event_cancel_is_safe(self):
        q = EventQueue()
        ev = q.push(1, lambda: None)
        q.clear()
        ev.cancel()  # detached from the queue: no accounting update
        assert len(q) == 0


class TestBatchedPrune:
    def test_prune_removes_dead_heap_entries(self):
        q = EventQueue()
        evs = [q.push(i, lambda: None) for i in range(3 * _PRUNE_THRESHOLD)]
        for ev in evs[: 2 * _PRUNE_THRESHOLD]:
            ev.cancel()
        # Dead entries dominated at some point, so the heap was rebuilt.
        assert len(q) == _PRUNE_THRESHOLD
        assert len(q._heap) < 3 * _PRUNE_THRESHOLD
        # Pop order of the survivors is unchanged.
        times = []
        while (ev := q.pop()) is not None:
            times.append(ev.time)
        assert times == list(range(2 * _PRUNE_THRESHOLD, 3 * _PRUNE_THRESHOLD))

    def test_prune_keeps_fifo_survivors(self):
        q = EventQueue()
        fifo_keep = q.push_soon(0, lambda: None)
        evs = [q.push(i + 1, lambda: None) for i in range(3 * _PRUNE_THRESHOLD)]
        for ev in evs:
            ev.cancel()
        assert len(q) == 1
        assert q.pop() is fifo_keep

    def test_peek_time_skips_cancelled_heads(self):
        q = EventQueue()
        first = q.push(1, lambda: None)
        q.push(2, lambda: None)
        first.cancel()
        assert q.peek_time() == 2
