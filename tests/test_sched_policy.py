"""Unit tests for CFS policy details and wakeup placement."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SchedParams
from repro.errors import SchedulerError
from repro.sched.cfs import CfsRunqueue, NICE_0_WEIGHT, nice_to_weight
from repro.sched.thread import Consume, CpuMode, Thread
from repro.units import MS
from tests.conftest import make_machine


class DummyThread(Thread):
    def body(self):
        while True:
            yield Consume(MS, CpuMode.KERNEL)


def make_rq():
    return CfsRunqueue(SchedParams())


def make_thread(machine, name, nice=0):
    return DummyThread(machine, name, nice=nice)


class TestWeights:
    def test_nice0_weight(self):
        assert nice_to_weight(0) == NICE_0_WEIGHT

    def test_table_monotone(self):
        weights = [nice_to_weight(n) for n in range(-20, 20)]
        assert weights == sorted(weights, reverse=True)

    def test_each_nice_step_about_10_percent(self):
        # Linux's design target: +1 nice ~= -10% CPU (weight ratio ~1.25
        # between adjacent levels).
        for n in range(-20, 19):
            ratio = nice_to_weight(n) / nice_to_weight(n + 1)
            assert 1.15 < ratio < 1.35

    def test_out_of_range_rejected(self):
        with pytest.raises(SchedulerError):
            nice_to_weight(20)


class TestRunqueue:
    def test_pick_next_lowest_vruntime(self, machine):
        rq = make_rq()
        a = make_thread(machine, "a")
        b = make_thread(machine, "b")
        a.vruntime, b.vruntime = 100, 50
        rq.enqueue(a, wakeup=False)
        rq.enqueue(b, wakeup=False)
        assert rq.pick_next() is b

    def test_double_enqueue_rejected(self, machine):
        rq = make_rq()
        t = make_thread(machine, "t")
        rq.enqueue(t, wakeup=False)
        with pytest.raises(SchedulerError):
            rq.enqueue(t, wakeup=False)

    def test_dequeue_unknown_rejected(self, machine):
        rq = make_rq()
        with pytest.raises(SchedulerError):
            rq.dequeue(make_thread(machine, "t"))

    def test_wakeup_placement_grants_bounded_credit(self, machine):
        rq = make_rq()
        rq.min_vruntime = 100 * MS
        sleeper = make_thread(machine, "s")
        sleeper.vruntime = 0  # slept for ages
        rq.enqueue(sleeper, wakeup=True)
        # Credit is capped at half the sleeper bonus, not unlimited.
        expected = 100 * MS - rq.params.sleeper_bonus_ns // 2
        assert sleeper.vruntime == expected

    def test_wakeup_placement_never_moves_backwards(self, machine):
        rq = make_rq()
        rq.min_vruntime = 10
        t = make_thread(machine, "t")
        t.vruntime = 500
        rq.enqueue(t, wakeup=True)
        assert t.vruntime == 500

    def test_update_curr_scales_by_weight(self, machine):
        rq = make_rq()
        light = make_thread(machine, "light", nice=5)
        heavy = make_thread(machine, "heavy", nice=-5)
        rq.update_curr(light, MS)
        rq.update_curr(heavy, MS)
        assert light.vruntime > heavy.vruntime

    def test_negative_update_curr_rejected(self, machine):
        rq = make_rq()
        t = make_thread(machine, "t")
        with pytest.raises(SchedulerError, match="negative runtime delta"):
            rq.update_curr(t, -1)
        assert t.vruntime == 0 and rq.min_vruntime == 0

    def test_min_vruntime_monotone(self, machine):
        rq = make_rq()
        t = make_thread(machine, "t")
        rq.enqueue(t, wakeup=False)
        before = rq.min_vruntime
        rq.update_curr(t, 10 * MS)
        assert rq.min_vruntime >= before

    def test_sched_slice_shrinks_with_load(self, machine):
        rq = make_rq()
        threads = [make_thread(machine, f"t{i}") for i in range(8)]
        current = threads[0]
        slice_alone = rq.sched_slice(current, current)
        for t in threads[1:]:
            rq.enqueue(t, wakeup=False)
        slice_loaded = rq.sched_slice(current, current)
        assert slice_loaded < slice_alone
        assert slice_loaded >= rq.params.min_granularity_ns

    def test_tick_preemption_requires_waiters(self, machine):
        rq = make_rq()
        t = make_thread(machine, "t")
        assert rq.should_preempt_on_tick(t, ran_ns=100 * MS) is False

    def test_wakeup_preemption_hysteresis(self, machine):
        rq = make_rq()
        curr = make_thread(machine, "curr")
        woken = make_thread(machine, "woken")
        curr.vruntime = woken.vruntime + rq.params.wakeup_granularity_ns // 2
        assert rq.should_preempt_on_wakeup(curr, woken) is False
        curr.vruntime = woken.vruntime + 2 * rq.params.wakeup_granularity_ns
        assert rq.should_preempt_on_wakeup(curr, woken) is True


class TestMinVruntimeUnification:
    """Regression tests for the unified min_vruntime maintenance path."""

    def test_pick_next_advances_min_vruntime(self, machine):
        # Before unification pick_next left min_vruntime at its stale value,
        # so the floor only moved when update_curr ran on the same queue.
        rq = make_rq()
        t = make_thread(machine, "t")
        t.vruntime = 50 * MS
        rq.enqueue(t, wakeup=False)
        assert rq.min_vruntime == 0
        assert rq.pick_next() is t
        assert rq.min_vruntime == 50 * MS

    def test_waker_placed_against_advanced_floor(self, machine):
        # The observable consequence of the stale floor: a thread waking
        # after the queue has progressed got an unbounded head start instead
        # of the capped sleeper credit.
        rq = make_rq()
        t = make_thread(machine, "t")
        t.vruntime = 50 * MS
        rq.enqueue(t, wakeup=False)
        rq.pick_next()
        w = make_thread(machine, "w")
        w.vruntime = 0
        rq.enqueue(w, wakeup=True)
        assert w.vruntime == 50 * MS - rq.params.sleeper_bonus_ns // 2

    def test_floor_never_overshoots_leftmost_waiter(self, machine):
        rq = make_rq()
        a = make_thread(machine, "a")
        b = make_thread(machine, "b")
        a.vruntime, b.vruntime = 10 * MS, 30 * MS
        rq.enqueue(a, wakeup=False)
        rq.enqueue(b, wakeup=False)
        current = rq.pick_next()
        assert current is a
        assert rq.min_vruntime == 10 * MS
        # the running thread races far ahead; the floor stops at the waiter
        rq.update_curr(current, 100 * MS)
        assert rq.min_vruntime == 30 * MS

    def test_dequeue_does_not_move_the_floor(self, machine):
        # dequeue has no current-thread context, so it must leave the floor
        # alone rather than guess (it could overshoot the incoming current).
        rq = make_rq()
        a = make_thread(machine, "a")
        b = make_thread(machine, "b")
        a.vruntime, b.vruntime = 5 * MS, 40 * MS
        rq.enqueue(a, wakeup=False)
        rq.enqueue(b, wakeup=False)
        rq.dequeue(a)
        assert rq.min_vruntime == 0


class FourCallCfs(CfsRunqueue):
    """Reference: the floor maintenance as four nested calls, each step its
    own method (update_curr -> _advance_min_vruntime -> leftmost_vruntime
    -> _peek), with pick_next folding the picked thread in the same way."""

    def pick_next(self):
        entry = self._peek()
        if entry is None:
            return None
        best = entry[3]
        self.dequeue(best)
        self._advance_min_vruntime(best)
        return best

    def update_curr(self, thread, delta_ns):
        if delta_ns < 0:
            raise SchedulerError("negative runtime delta")
        thread.vruntime += delta_ns * NICE_0_WEIGHT // thread.weight
        self._advance_min_vruntime(thread)

    def _advance_min_vruntime(self, current):
        v = None if current is None else current.vruntime
        left = self.leftmost_vruntime()
        if left is not None and (v is None or left < v):
            v = left
        if v is not None and v > self.min_vruntime:
            self.min_vruntime = v


_N_THREADS = 5
_CFS_STEP = st.one_of(
    st.tuples(st.just("enqueue"), st.integers(0, _N_THREADS - 1), st.booleans()),
    st.tuples(st.just("dequeue"), st.integers(0, _N_THREADS - 1)),
    st.tuples(st.just("pick_next")),
    st.tuples(st.just("update_curr"), st.integers(0, 20 * MS)),
)


class TestOneCallFloorUpdate:
    """``update_curr`` charges the delta and raises ``min_vruntime`` in one
    call; it must agree with the four-call reference on every script."""

    @given(st.lists(st.integers(-5, 5), min_size=_N_THREADS, max_size=_N_THREADS),
           st.lists(_CFS_STEP, max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_four_call_reference(self, nices, script):
        def population():
            return [SimpleNamespace(tid=i + 1, name=f"t{i}", weight=nice_to_weight(n),
                                    vruntime=0, state=None)
                    for i, n in enumerate(nices)]

        sides = [(CfsRunqueue(SchedParams()), population()),
                 (FourCallCfs(SchedParams()), population())]
        current = None  # index of the thread on the CPU, the same on both sides
        for step in script:
            op = step[0]
            if op == "enqueue":
                i, wakeup = step[1], step[2]
                if i == current or sides[0][0].has(sides[0][1][i]):
                    continue
                for rq, threads in sides:
                    rq.enqueue(threads[i], wakeup)
            elif op == "dequeue":
                # Leaves a dead heap entry behind (lazy deletion).
                i = step[1]
                if not sides[0][0].has(sides[0][1][i]):
                    continue
                for rq, threads in sides:
                    rq.dequeue(threads[i])
            elif op == "pick_next":
                picked = []
                for rq, threads in sides:
                    if current is not None:
                        rq.enqueue(threads[current], False)  # preemption requeue
                    nxt = rq.pick_next()
                    picked.append(None if nxt is None else threads.index(nxt))
                assert picked[0] == picked[1]
                current = picked[0]
            elif current is not None:
                for rq, threads in sides:
                    rq.update_curr(threads[current], step[1])
            (new, new_threads), (ref, ref_threads) = sides
            assert new.min_vruntime == ref.min_vruntime
            assert [t.vruntime for t in new_threads] == [t.vruntime for t in ref_threads]
            # Same heap, dead entries included (reading it must not prune it).
            assert [(*e[:3], e[3] is None) for e in new._heap] == \
                [(*e[:3], e[3] is None) for e in ref._heap]


class TestPlacement:
    def test_pinned_thread_goes_to_its_core(self, sim):
        m = make_machine(sim, n_cores=4)
        t = DummyThread(m, "t", nice=0)
        t.pinned_core = 2
        m.spawn(t)
        sim.run_for(5 * MS)
        assert t.core is m.cores[2]

    def test_pin_out_of_range_rejected(self, sim):
        m = make_machine(sim, n_cores=2)
        t = DummyThread(m, "t")
        t.pinned_core = 9
        with pytest.raises(SchedulerError):
            m.spawn(t)

    def test_unpinned_prefers_idle_core(self, sim):
        m = make_machine(sim, n_cores=4)
        hog = DummyThread(m, "hog")
        hog.pinned_core = 0
        m.spawn(hog)
        sim.run_for(MS)
        free = DummyThread(m, "free")
        m.spawn(free)
        sim.run_for(MS)
        assert free.core.index != 0

    def test_all_busy_picks_least_loaded(self, sim):
        m = make_machine(sim, n_cores=2)
        for i in range(3):
            t = DummyThread(m, f"t{i}")
            t.pinned_core = 0 if i < 2 else 1
            m.spawn(t)
        sim.run_for(MS)
        newcomer = DummyThread(m, "new")
        m.spawn(newcomer)
        sim.run_for(MS)
        assert newcomer.core.index == 1  # core 1 had 1 thread, core 0 had 2
