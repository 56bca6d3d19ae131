"""Unit tests for the per-vCPU guest context and task machinery."""

from __future__ import annotations

import pytest

from repro.core.configs import paper_config
from repro.errors import GuestError
from repro.experiments.testbed import single_vcpu_testbed
from repro.guest.ops import GHalt, GWork
from repro.guest.tasks import CpuBurnTask, GuestTask, TaskBlock, TaskState, TaskYield
from repro.units import MS, us


def fresh_context():
    tb = single_vcpu_testbed(paper_config("PI"), seed=17, guest_timer=False)
    return tb, tb.tested.guest_os.contexts[0]


class CountedTask(GuestTask):
    def __init__(self, name, nice=0, steps=3):
        super().__init__(name, nice=nice)
        self.steps = steps
        self.ran = 0

    def body(self):
        for _ in range(self.steps):
            yield GWork(us(1))
            self.ran += 1


class TestNextOp:
    def test_halt_when_empty(self):
        tb, ctx = fresh_context()
        # Remove the burn task installed by the testbed builder.
        ctx.runqueue.clear()
        ctx.current = None
        assert isinstance(ctx.next_op(), GHalt)

    def test_passes_through_work_items(self):
        tb, ctx = fresh_context()
        ctx.runqueue.clear()
        t = CountedTask("t")
        ctx.add_task(t)
        op = ctx.next_op()
        assert isinstance(op, GWork)

    def test_finished_task_removed(self):
        tb, ctx = fresh_context()
        ctx.runqueue.clear()
        t = CountedTask("t", steps=1)
        ctx.add_task(t)
        ctx.next_op()  # the single GWork
        op = ctx.next_op()  # task finishes; nothing else runnable
        assert isinstance(op, GHalt)
        assert t.state is TaskState.FINISHED

    def test_priority_strictness(self):
        tb, ctx = fresh_context()
        ctx.runqueue.clear()
        hi = CountedTask("hi", nice=0, steps=100)
        lo = CountedTask("lo", nice=19, steps=100)
        ctx.add_task(lo)
        ctx.add_task(hi)
        for _ in range(10):
            ctx.next_op()
        assert hi.ran > 0
        assert lo.ran == 0

    def test_yield_rotates_within_priority(self):
        tb, ctx = fresh_context()
        ctx.runqueue.clear()

        order = []

        class Yielder(GuestTask):
            def body(self):
                for _ in range(2):
                    yield GWork(us(1))
                    order.append(self.name)
                    yield TaskYield()

        ctx.add_task(Yielder("a"))
        ctx.add_task(Yielder("b"))
        for _ in range(4):
            ctx.next_op()
        assert order[:2] == ["a", "b"]

    def test_lone_yielder_stays_current(self):
        tb, ctx = fresh_context()
        ctx.runqueue.clear()
        ctx.current = None

        class TickedYielder(GuestTask):
            def body(self):
                while True:
                    yield GWork(us(1))
                    ctx.on_timer_tick()  # a guest tick lands mid-run
                    yield TaskYield()

        t = TickedYielder("t")
        ctx.add_task(t)
        assert isinstance(ctx.next_op(), GWork) and ctx.current is t
        # The yield comes from the only runnable task: it stays current,
        # nothing is requeued, and the pending rotation is still cleared.
        assert isinstance(ctx.next_op(), GWork)
        assert ctx.current is t and not ctx.runqueue
        assert ctx._tick_rotate is False

    def test_burn_task_hands_out_one_work_item(self):
        tb, ctx = fresh_context()
        ctx.runqueue.clear()
        ctx.current = None
        burn = CpuBurnTask("burn", chunk_ns=us(100))
        ctx.add_task(burn)
        first = ctx.next_op()
        assert isinstance(first, GWork) and first.ns == us(100)
        assert ctx.next_op() is first
        assert ctx.current is burn and burn.burned == us(100)

    def test_block_then_wake(self):
        tb, ctx = fresh_context()
        ctx.runqueue.clear()

        class Blocker(GuestTask):
            def __init__(self):
                super().__init__("blocker")
                self.resumed = False

            def body(self):
                yield TaskBlock()
                self.resumed = True
                yield GWork(us(1))

        t = Blocker()
        ctx.add_task(t)
        assert isinstance(ctx.next_op(), GHalt)  # blocked immediately
        assert t.state is TaskState.BLOCKED
        t.wake_task()
        op = ctx.next_op()
        assert isinstance(op, GWork)
        assert t.resumed

    def test_wake_before_block_not_lost(self):
        tb, ctx = fresh_context()
        ctx.runqueue.clear()

        class SelfWaker(GuestTask):
            def __init__(self):
                super().__init__("selfwake")
                self.rounds = 0

            def body(self):
                for _ in range(2):
                    self.wake_task()  # wake while RUNNABLE
                    yield TaskBlock()
                    self.rounds += 1
                yield GWork(us(1))

        t = SelfWaker()
        ctx.add_task(t)
        for _ in range(6):
            op = ctx.next_op()
            if isinstance(op, GHalt):
                break
        assert t.rounds == 2

    def test_tick_rotation(self):
        tb, ctx = fresh_context()
        ctx.runqueue.clear()
        a = CountedTask("a", steps=1000)
        b = CountedTask("b", steps=1000)
        ctx.add_task(a)
        ctx.add_task(b)
        ctx.next_op()  # 'a' becomes current
        ctx.on_timer_tick()
        ctx.next_op()  # rotation: 'b' becomes current, yields its first work
        ctx.next_op()  # 'b' continues (counter increments one step behind)
        # After the tick, 'b' got the vCPU.
        assert b.ran >= 1

    def test_double_attach_rejected(self):
        tb, ctx = fresh_context()
        t = CountedTask("t")
        ctx.add_task(t)
        with pytest.raises(GuestError):
            ctx.add_task(t)


class TestBurnTask:
    def test_burn_accumulates(self):
        tb = single_vcpu_testbed(paper_config("PI"), seed=17)
        tb.run_for(100 * MS)
        burn = next(
            t
            for ctx in tb.tested.guest_os.contexts
            for t in [ctx.current, *ctx.runqueue]
            if isinstance(t, CpuBurnTask)
        )
        assert burn.burned > 50 * MS
