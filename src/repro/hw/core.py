"""A physical CPU core: the dispatch engine.

The core owns a runqueue (a pluggable :class:`~repro.sched.policy.SchedPolicy`,
CFS by default) and drives thread generators.  Three things can end a CPU
segment before its scheduled completion:

* **preemption** (scheduler tick slice expiry or wakeup preemption) — the
  in-flight request keeps its remaining time and continues at the next
  dispatch; the thread's generator never observes it;
* **poke** (interrupt delivery to an interruptible segment) — the generator
  is resumed *now* with the time actually consumed, so interrupt latency is
  exact rather than quantized to segment boundaries;
* **block/finish** from the thread itself.

A charge credits elapsed time to the thread, its accounting mode, and its
CFS vruntime.  Partial charges (ticks, wakeups, preemption, pokes) go
through :meth:`_sync_current_runtime`; a segment's end charges all of it
in one step, inline (the fused path of :meth:`_start_segment`) or from
the queue (:meth:`_on_segment_complete`).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import SchedulerError
from repro.sched.thread import (
    MODE_IDLE,
    MODE_SWITCH,
    THREAD_BLOCKED,
    THREAD_FINISHED,
    THREAD_READY,
    THREAD_RUNNING,
    Block,
    Consume,
    CpuMode,
    Thread,
    ThreadState,
    YieldCPU,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.machine import Machine

__all__ = ["Core"]

_MAX_SYNC_STEPS = 100_000


class Core:
    """One physical core of the simulated host."""

    def __init__(self, machine: "Machine", index: int):
        self.machine = machine
        self.sim = machine.sim
        self.index = index
        self.rq = machine.make_runqueue()
        self.current: Optional[Thread] = None
        self.prev_thread: Optional[Thread] = None
        self.lapic = None  # installed by the machine
        self.need_resched = False
        self._switching = False
        #: wakeups that arrived while a context switch was in flight; the
        #: preemption decision for them is re-run at the switch boundary
        self._switch_wakeups: list = []
        self._completion_ev = None
        self._segment_started = 0
        self._dispatch_time = 0
        #: cumulative core time per accounting mode
        self.mode_time = {mode: 0 for mode in CpuMode}
        self.ctx_switches = 0
        # Pre-bound once: these are scheduled on every non-fused segment and
        # every context switch, and rebinding the method per call allocates.
        self._on_segment_complete_cb = self._on_segment_complete
        self._complete_switch_cb = self._complete_switch

    # ------------------------------------------------------------ inspection
    @property
    def is_idle(self) -> bool:
        """True when nothing runs or waits on this core."""
        return self.current is None and not self._switching and len(self.rq) == 0

    def busy_time(self) -> int:
        """Total non-idle nanoseconds accumulated by this core."""
        return sum(v for m, v in self.mode_time.items() if m is not MODE_IDLE)

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` ns this core spent non-idle."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time() / elapsed

    # ------------------------------------------------------------- queue API
    def enqueue(self, thread: Thread, wakeup: bool) -> None:
        """Place a runnable thread on this core's runqueue."""
        thread.core = self
        self.rq.enqueue(thread, wakeup)
        if self._switching:
            if wakeup:
                # There is no current to test against until the in-flight
                # switch lands; deferring to "the next tick" would lose the
                # decision entirely while fused segments keep
                # ``_completion_ev`` None.  Remember the waker and re-run
                # the check at the switch boundary (_complete_switch).
                self._switch_wakeups.append(thread)
            return
        if self.current is None:
            self._reschedule()
            return
        if wakeup:
            self._sync_current_runtime()
            if self.rq.should_preempt_on_wakeup(self.current, thread):
                self._request_resched()
        # Non-wakeup enqueues (preemption requeue, yield, migration) never
        # preempt — matching Linux, where check_preempt only runs on wakeup.

    def _request_resched(self) -> None:
        """Preempt now if safe, else flag for the next engine boundary."""
        if self._completion_ev is not None:
            self.preempt_current()
        else:
            # We are inside the current thread's synchronous advance; the
            # flag is honoured before its next segment starts.
            self.need_resched = True

    # ------------------------------------------------------------ scheduling
    def _reschedule(self) -> None:
        if self.current is not None:
            raise SchedulerError("reschedule with a thread still on the CPU")
        nxt = self.rq.pick_next()
        if nxt is None:
            return  # idle
        self._switching = True
        cost = self.machine.cost.ctx_switch_ns
        self.ctx_switches += 1
        self.mode_time[MODE_SWITCH] += cost
        self.sim.schedule(cost, self._complete_switch_cb, nxt)

    def _complete_switch(self, thread: Thread) -> None:
        self._switching = False
        wakeups = self._switch_wakeups
        if wakeups:
            self._switch_wakeups = []
        state = thread.state
        if state is not THREAD_READY and state is not THREAD_RUNNING:
            # The thread vanished (finished) while we were switching; rare.
            # Any pending wakers are already on the runqueue and compete in
            # the reschedule below, so their preemption question dissolves.
            self._reschedule()
            return
        self.current = thread
        thread.core = self
        thread.state = THREAD_RUNNING
        self._dispatch_time = self.sim.now
        if thread.is_vcpu:
            self.machine.notifiers.fire_sched_in(thread, self)
        thread.on_sched_in(self)
        for woken in wakeups:
            # Re-run the wakeup-preemption check deferred from mid-switch.
            # The waker may have been dispatched elsewhere or migrated in
            # the meantime; only still-queued local threads count.
            if woken.core is self and self.rq.has(woken) \
                    and self.rq.should_preempt_on_wakeup(thread, woken):
                self.need_resched = True
                break
        self._run_current()

    def _stop_current(self, new_state: ThreadState) -> Thread:
        """Take the current thread off the CPU (shared by preempt/block/finish)."""
        t = self.current
        if t is None:
            raise SchedulerError("no current thread to stop")
        if self._completion_ev is not None:
            self.sim.cancel(self._completion_ev)
            self._completion_ev = None
        self._sync_current_runtime()
        self.current = None
        self.prev_thread = t
        t.state = new_state
        t.on_sched_out(self)
        if t.is_vcpu:
            self.machine.notifiers.fire_sched_out(t, self)
        return t

    def preempt_current(self) -> None:
        """Involuntarily requeue the running thread and pick another."""
        self.need_resched = False
        t = self._stop_current(THREAD_READY)
        self.rq.enqueue(t, wakeup=False)
        self._reschedule()

    def on_tick(self) -> None:
        """Scheduler tick: charge the current thread and check slice expiry."""
        if self.current is None or self._completion_ev is None:
            return
        self._sync_current_runtime()
        ran = self.sim.now - self._dispatch_time
        if self.rq.should_preempt_on_tick(self.current, ran):
            self.preempt_current()

    # -------------------------------------------------------- segment engine
    def _run_current(self) -> None:
        t = self.current
        req = t._request
        if req is not None:
            if req.interruptible and t._poke_pending:
                # A poke arrived while the thread was preempted: complete the
                # segment early so the interrupt is seen at dispatch time.
                t._poke_pending = False
                t._request = None
                t._resume_value = req.consumed
            elif req.remaining > 0:
                if not self._start_segment(req):
                    return
                # Segment completed inline; fall through to _advance.
            else:
                # A zero-remaining leftover request: complete it now.
                t._request = None
                t._resume_value = req.consumed
        self._advance(t)

    def _advance(self, t: Thread) -> None:
        """Resume the thread generator until it issues a real CPU request."""
        send = t._gen.send
        steps = 0
        while True:
            steps += 1
            if steps > _MAX_SYNC_STEPS:
                raise SchedulerError(
                    f"{t.name} made {_MAX_SYNC_STEPS} zero-time requests; livelock?"
                )
            try:
                req = send(t._resume_value)
            except StopIteration:
                self._finish_current()
                return
            t._resume_value = None
            # The request classes are final, so exact-type dispatch is safe
            # and skips isinstance's subclass walk on the hottest branch.
            cls = type(req)
            if cls is Consume:
                if req.interruptible and t._poke_pending:
                    # A poke raced ahead of the yield: deliver immediately.
                    t._poke_pending = False
                    t._resume_value = 0
                    continue
                if req.remaining == 0:
                    t._resume_value = 0
                    continue
                t._request = req
                if self._start_segment(req):
                    # The whole segment was fused into this dispatch (the
                    # clock advanced, so this is real progress): resume the
                    # generator directly and reset the livelock guard.
                    steps = 0
                    continue
                return
            if cls is Block:
                if t._wake_pending:
                    t._wake_pending = False
                    continue
                self._stop_current(THREAD_BLOCKED)
                self._reschedule()
                return
            if cls is YieldCPU:
                if len(self.rq):
                    self.need_resched = False
                    stopped = self._stop_current(THREAD_READY)
                    self.rq.enqueue(stopped, wakeup=False)
                    self._reschedule()
                    return
                continue
            raise SchedulerError(f"{t.name} yielded unknown request {req!r}")

    def _start_segment(self, req: Consume) -> bool:
        """Begin a CPU segment; True when it was *fused* (completed inline).

        The fused path asks the simulator to advance the clock over the
        whole segment (:meth:`Simulator.advance_for_segment`), which only
        succeeds when no other event could fire before the completion —
        the completion is then applied synchronously with exactly the
        bookkeeping :meth:`_on_segment_complete` would have performed at
        the same instant: same clock, same per-mode accounting, same
        vruntime update, same resume value.
        """
        if self.need_resched and len(self.rq):
            self.need_resched = False
            self.preempt_current()
            return False
        self.need_resched = False
        sim = self.sim
        if sim.advance_for_segment(req.remaining):
            t = self.current
            elapsed = req.remaining
            req.remaining = 0
            req.consumed += elapsed
            mode = req.mode
            t.sum_exec += elapsed
            t.mode_exec[mode] += elapsed
            self.mode_time[mode] += elapsed
            self.rq.update_curr(t, elapsed)
            self._segment_started = sim.now
            t._request = None
            t._resume_value = req.consumed
            return True
        self._segment_started = sim.now
        self._completion_ev = sim.schedule(req.remaining, self._on_segment_complete_cb)
        return False

    def _on_segment_complete(self) -> None:
        """A queued segment ends: charge all of what remains in one step.

        The completion was scheduled ``remaining`` ns after
        ``_segment_started``, and every partial charge since
        (:meth:`_sync_current_runtime`) moved both by the same amount, so
        it fires exactly where they meet; a tick or wakeup charge at this
        very instant leaves nothing to charge.  The charge is written out
        here as in :meth:`_start_segment`'s fused path (DESIGN.md §12).
        """
        self._completion_ev = None
        t = self.current
        req = t._request
        now = self.sim.now
        elapsed = now - self._segment_started
        if elapsed != req.remaining:
            if elapsed > req.remaining:
                raise SchedulerError("segment overran its scheduled completion")
            raise SchedulerError("segment completed with time remaining")
        if elapsed:
            req.remaining = 0
            req.consumed += elapsed
            mode = req.mode
            t.sum_exec += elapsed
            t.mode_exec[mode] += elapsed
            self.mode_time[mode] += elapsed
            self.rq.update_curr(t, elapsed)
            self._segment_started = now
        t._request = None
        t._resume_value = req.consumed
        self._advance(t)

    def poke_current(self) -> None:
        """End the current interruptible segment *now* (interrupt delivery)."""
        t = self.current
        if t is None or t._request is None or self._completion_ev is None:
            raise SchedulerError("poke with no interruptible segment in flight")
        self.sim.cancel(self._completion_ev)
        self._completion_ev = None
        self._sync_current_runtime()
        req = t._request
        t._request = None
        t._poke_pending = False
        t._resume_value = req.consumed
        self._advance(t)

    def _finish_current(self) -> None:
        self._stop_current(THREAD_FINISHED)
        self._reschedule()

    def _sync_current_runtime(self) -> None:
        t = self.current
        if t is None or t._request is None:
            return
        now = self.sim.now
        elapsed = now - self._segment_started
        if elapsed <= 0:
            return
        req = t._request
        if elapsed > req.remaining:
            raise SchedulerError("segment overran its scheduled completion")
        req.remaining -= elapsed
        req.consumed += elapsed
        mode = req.mode
        t.sum_exec += elapsed
        t.mode_exec[mode] += elapsed
        self.mode_time[mode] += elapsed
        self.rq.update_curr(t, elapsed)
        self._segment_started = now

    # ------------------------------------------------------------------ IPIs
    def on_ipi(self, vector: int, kind: str) -> None:
        """An IPI arrived at this core; hand it to the running thread if any."""
        t = self.current
        if t is not None and hasattr(t, "on_host_ipi"):
            t.on_host_ipi(vector, kind)

    def __repr__(self) -> str:  # pragma: no cover
        cur = self.current.name if self.current else "idle"
        return f"<Core {self.index} running={cur} rq={len(self.rq)}>"
