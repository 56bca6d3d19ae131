"""Alternative host-scheduler policies: round-robin, MLFQ, deadline.

These answer the cross-cutting question behind ROADMAP item 4: does ES2's
intelligent redirection still win when the host scheduler is *not* CFS?
Each policy implements the :class:`~repro.sched.policy.SchedPolicy`
interface and is selected with ``SchedParams(policy=...)``.

All three are deliberately textbook-shaped (the schedsi policy zoo is the
design reference) rather than faithful kernel ports: the point is a
*different* preemption geometry around the same I/O event path, not a
second kernel model.  They share the simulation-wide determinism rules —
tid tiebreaks everywhere, no wall-clock, no unordered iteration.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.config import SchedParams
from repro.errors import SchedulerError
from repro.sched.cfs import NICE_0_WEIGHT
from repro.sched.policy import SchedPolicy, register_policy
from repro.sched.thread import Thread

__all__ = ["RoundRobinQueue", "MultilevelFeedbackQueue", "DeadlineQueue"]


@register_policy
class RoundRobinQueue(SchedPolicy):
    """Weight-blind FIFO rotation with a fixed timeslice.

    The simplest possible baseline: threads run in arrival order for up to
    ``rr_slice_ns`` each; wakeups never preempt.  I/O-bound threads get no
    latency help at all, which makes this the worst case for the paper's
    virtual I/O event path — vhost wakeups can wait a full rotation.
    """

    name = "rr"

    def __init__(self, params: SchedParams):
        super().__init__(params)
        self._fifo: Deque[Thread] = deque()

    def enqueue(self, thread: Thread, wakeup: bool) -> None:
        self._note_enqueued(thread)
        self._fifo.append(thread)

    def dequeue(self, thread: Thread) -> None:
        self._note_dequeued(thread)
        self._fifo.remove(thread)

    def pick_next(self) -> Optional[Thread]:
        if not self._fifo:
            return None
        thread = self._fifo.popleft()
        self._note_dequeued(thread)
        return thread

    def update_curr(self, thread: Thread, delta_ns: int) -> None:
        if delta_ns < 0:
            raise SchedulerError("negative runtime delta")

    def should_preempt_on_tick(self, current: Thread, ran_ns: int) -> bool:
        return bool(self._fifo) and ran_ns >= self.params.rr_slice_ns

    def should_preempt_on_wakeup(self, current: Thread, woken: Thread) -> bool:
        return False


@register_policy
class MultilevelFeedbackQueue(SchedPolicy):
    """Classic MLFQ: demote CPU hogs, boost I/O sleepers.

    ``mlfq_levels`` FIFO levels with a per-level quantum of
    ``mlfq_quantum_ns << level``.  A thread that exhausts its quantum is
    demoted on requeue; a thread that blocks and wakes re-enters at the top
    level with a fresh quantum (the classic "relinquish before the quantum
    expires and keep your priority" rule).  A periodic boost — every
    ``mlfq_boost_interval_ns`` of on-CPU time observed by this queue —
    lifts everything back to the top level so demoted hogs cannot starve.
    """

    name = "mlfq"

    def __init__(self, params: SchedParams):
        super().__init__(params)
        self._levels: List[Deque[Thread]] = [deque() for _ in range(params.mlfq_levels)]
        self._level: Dict[int, int] = {}
        self._used: Dict[int, int] = {}
        self._clock = 0
        self._last_boost = 0

    def quantum(self, level: int) -> int:
        """The timeslice granted at ``level`` (doubles per demotion)."""
        return self.params.mlfq_quantum_ns << level

    def enqueue(self, thread: Thread, wakeup: bool) -> None:
        self._note_enqueued(thread)
        tid = thread.tid
        if wakeup:
            level = 0
            self._used[tid] = 0
        else:
            level = self._level.get(tid, 0)
            if self._used.get(tid, 0) >= self.quantum(level):
                if level + 1 < len(self._levels):
                    level += 1
                self._used[tid] = 0
        self._level[tid] = level
        self._levels[level].append(thread)

    def dequeue(self, thread: Thread) -> None:
        self._note_dequeued(thread)
        self._levels[self._level.get(thread.tid, 0)].remove(thread)

    def pick_next(self) -> Optional[Thread]:
        self._maybe_boost()
        for level in self._levels:
            if level:
                thread = level.popleft()
                self._note_dequeued(thread)
                return thread
        return None

    def _maybe_boost(self) -> None:
        if self._clock - self._last_boost < self.params.mlfq_boost_interval_ns:
            return
        self._last_boost = self._clock
        top = self._levels[0]
        for level in self._levels[1:]:
            while level:
                top.append(level.popleft())
        for tid in self._queued:
            self._level[tid] = 0
            self._used[tid] = 0

    def update_curr(self, thread: Thread, delta_ns: int) -> None:
        if delta_ns < 0:
            raise SchedulerError("negative runtime delta")
        self._clock += delta_ns
        self._used[thread.tid] = self._used.get(thread.tid, 0) + delta_ns

    def should_preempt_on_tick(self, current: Thread, ran_ns: int) -> bool:
        if not self._queued:
            return False
        cur_level = self._level.get(current.tid, 0)
        if self._used.get(current.tid, 0) >= self.quantum(cur_level):
            return True
        # A strictly higher-priority thread is waiting.
        return any(self._levels[lvl] for lvl in range(cur_level))

    def should_preempt_on_wakeup(self, current: Thread, woken: Thread) -> bool:
        return self._level.get(woken.tid, 0) < self._level.get(current.tid, 0)


@register_policy
class DeadlineQueue(SchedPolicy):
    """Earliest-deadline-first with weight-scaled implicit periods.

    Each thread carries a deadline ``clock + dl_period_ns * 1024 // weight``
    assigned when it wakes or when its previous deadline has expired; the
    earliest deadline runs next and preempts later ones on wakeup.  A
    running thread is throttled after ``dl_runtime_ns`` of continuous CPU
    whenever someone is waiting, so the queue rotates and the policy clock
    advances past stale deadlines — that renewal is what makes the policy
    starvation-free without a full CBS implementation.
    """

    name = "deadline"

    def __init__(self, params: SchedParams):
        super().__init__(params)
        # Same lazy-deletion heap shape as CfsRunqueue, keyed by deadline.
        self._heap: List[list] = []
        self._entries: Dict[int, list] = {}
        self._deadline: Dict[int, int] = {}
        self._clock = 0
        self._seq = 0

    def _period(self, thread: Thread) -> int:
        return self.params.dl_period_ns * NICE_0_WEIGHT // thread.weight

    def enqueue(self, thread: Thread, wakeup: bool) -> None:
        self._note_enqueued(thread)
        tid = thread.tid
        deadline = self._deadline.get(tid)
        if wakeup or deadline is None or deadline <= self._clock:
            deadline = self._clock + self._period(thread)
            self._deadline[tid] = deadline
        self._seq += 1
        entry = [deadline, tid, self._seq, thread]
        self._entries[tid] = entry
        heapq.heappush(self._heap, entry)

    def dequeue(self, thread: Thread) -> None:
        self._note_dequeued(thread)
        self._entries.pop(thread.tid)[3] = None

    def pick_next(self) -> Optional[Thread]:
        entry = self._peek()
        if entry is None:
            return None
        thread = entry[3]
        self.dequeue(thread)
        return thread

    def _peek(self) -> Optional[list]:
        heap = self._heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def update_curr(self, thread: Thread, delta_ns: int) -> None:
        if delta_ns < 0:
            raise SchedulerError("negative runtime delta")
        self._clock += delta_ns

    def should_preempt_on_tick(self, current: Thread, ran_ns: int) -> bool:
        entry = self._peek()
        if entry is None:
            return False
        if ran_ns >= self.params.dl_runtime_ns:
            return True  # runtime throttle: rotate so deadlines can renew
        if ran_ns < self.params.min_granularity_ns:
            return False
        cur = self._deadline.get(current.tid)
        return cur is None or entry[0] < cur

    def should_preempt_on_wakeup(self, current: Thread, woken: Thread) -> bool:
        cur = self._deadline.get(current.tid)
        woken_dl = self._deadline.get(woken.tid)
        return cur is None or (woken_dl is not None and woken_dl < cur)
