"""A Completely-Fair-Scheduler model (per-core runqueue).

This reproduces the CFS behaviours that matter for the paper:

* weighted virtual runtime; the leftmost (minimum vruntime) task runs next;
* a scheduling period of ``max(sched_latency, nr_running * min_granularity)``
  divided into weight-proportional slices — with four vCPU threads sharing a
  core (the paper's micro/macro setup) each gets a ~6 ms slice, which is the
  origin of the up-to-18 ms ping RTTs in Fig. 7;
* wakeup preemption with ``wakeup_granularity`` hysteresis;
* sleeper credit on wakeup (GENTLE_FAIR_SLEEPERS) so I/O-bound tasks
  preempt CPU hogs promptly.

vCPU threads are deliberately indistinguishable from other threads here —
exactly the property (Section V-B) that forces ES2 to use preemption
notifiers rather than scheduler modifications.

The queued set is kept in a lazy-deletion binary heap ordered by
``(vruntime, tid)``.  A thread's vruntime only changes while it is *running*
(``update_curr``) or at enqueue placement — never while queued — so heap
order stays valid without rebalancing and ``pick_next`` / ``leftmost`` are
O(log n) instead of the previous O(n) scan plus O(n) ``list.remove``.

``min_vruntime`` has exactly one maintainer, :meth:`update_curr`, which
charges the running thread and raises the floor in the same call
(monotone, like Linux's ``update_curr`` + ``update_min_vruntime``).  It
runs at every point where the floor can legitimately move: once per CPU
segment while a thread runs, and from ``pick_next`` (with a zero delta)
when a thread takes the CPU.  The latter matters for wakeup placement: a
thread woken during the context-switch window is placed against a floor
that already accounts for the just-picked thread, instead of the stale
value a long-idle queue would otherwise hand out as extra sleeper credit.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro.config import SchedParams
from repro.errors import SchedulerError
from repro.sched.policy import SchedPolicy, register_policy
from repro.sched.thread import Thread

__all__ = ["CfsRunqueue", "nice_to_weight", "NICE_0_WEIGHT"]

#: Linux ``sched_prio_to_weight`` table, nice -20 .. +19.
_PRIO_TO_WEIGHT = [
    88761, 71755, 56483, 46273, 36291,
    29154, 23254, 18705, 14949, 11916,
    9548, 7620, 6100, 4904, 3906,
    3121, 2501, 1991, 1586, 1277,
    1024, 820, 655, 526, 423,
    335, 272, 215, 172, 137,
    110, 87, 70, 56, 45,
    36, 29, 23, 18, 15,
]

NICE_0_WEIGHT = 1024


def nice_to_weight(nice: int) -> int:
    """CFS load weight for a nice level in [-20, 19]."""
    if not -20 <= nice <= 19:
        raise SchedulerError(f"nice level out of range: {nice}")
    return _PRIO_TO_WEIGHT[nice + 20]


@register_policy
class CfsRunqueue(SchedPolicy):
    """Runnable queue for one core.  The *current* thread is tracked by the
    core itself; this queue holds only threads waiting for the CPU."""

    name = "cfs"

    def __init__(self, params: SchedParams):
        super().__init__(params)
        self.min_vruntime = 0
        # Heap entries are [vruntime, tid, seq, thread]; dequeue marks the
        # thread slot None (lazy deletion) and pops skip dead entries.  The
        # seq counter keeps entries totally ordered so two entries for the
        # same (vruntime, tid) — one dead, one live — never compare threads.
        self._heap: List[list] = []
        self._entries: Dict[int, list] = {}
        self._seq = 0

    # ------------------------------------------------------------- queue ops
    def enqueue(self, thread: Thread, wakeup: bool) -> None:
        """Add a runnable thread; apply sleeper placement if it just woke."""
        self._note_enqueued(thread)
        if wakeup:
            # Sleeper credit: a woken task is placed at most half a latency
            # period behind min_vruntime so it preempts hogs promptly but
            # cannot starve them by hoarding credit while asleep.
            bonus = self.params.sleeper_bonus_ns // 2
            thread.vruntime = max(thread.vruntime, self.min_vruntime - bonus)
        else:
            thread.vruntime = max(thread.vruntime, self.min_vruntime)
        self._seq += 1
        entry = [thread.vruntime, thread.tid, self._seq, thread]
        self._entries[thread.tid] = entry
        heappush(self._heap, entry)

    def dequeue(self, thread: Thread) -> None:
        """Remove a thread from the runnable queue."""
        self._note_dequeued(thread)
        self._entries.pop(thread.tid)[3] = None

    def pick_next(self) -> Optional[Thread]:
        """Remove and return the leftmost (minimum-vruntime) thread."""
        entry = self._peek()
        if entry is None:
            return None
        best = entry[3]
        self.dequeue(best)
        # The picked thread is about to become current: fold it into the
        # floor so wakeups landing during the switch see an up-to-date
        # min_vruntime (stale-sleeper-credit fix).
        self.update_curr(best, 0)
        return best

    def _peek(self) -> Optional[list]:
        """The live leftmost heap entry, discarding dead ones (None if empty)."""
        heap = self._heap
        while heap and heap[0][3] is None:
            heappop(heap)
        return heap[0] if heap else None

    def leftmost_vruntime(self) -> Optional[int]:
        """Smallest vruntime among queued threads (None if empty)."""
        entry = self._peek()
        return None if entry is None else entry[0]

    # ----------------------------------------------------------- accounting
    def update_curr(self, thread: Thread, delta_ns: int) -> None:
        """Advance ``thread``'s vruntime by a weighted ``delta_ns`` and raise
        ``min_vruntime`` to ``min(thread.vruntime, leftmost queued)``.

        The sole ``min_vruntime`` maintainer; the floor never moves down.
        One call per CPU segment, so the leftmost lookup is inlined here.
        """
        if delta_ns < 0:
            raise SchedulerError("negative runtime delta")
        v = thread.vruntime + delta_ns * NICE_0_WEIGHT // thread.weight
        thread.vruntime = v
        heap = self._heap
        while heap and heap[0][3] is None:
            heappop(heap)
        if heap and heap[0][0] < v:
            v = heap[0][0]
        if v > self.min_vruntime:
            self.min_vruntime = v

    # --------------------------------------------------------------- policy
    def sched_slice(self, thread: Thread, current: Optional[Thread]) -> int:
        """The slice ``thread`` is entitled to in the current period."""
        stranger = thread is not current and not self.has(thread)
        nr = self.nr_running(current)
        if stranger:
            nr += 1
        period = self.params.sched_latency_ns
        lat_tasks = max(1, self.params.sched_latency_ns // self.params.min_granularity_ns)
        if nr > lat_tasks:
            period = nr * self.params.min_granularity_ns
        total = self.total_weight(current)
        if stranger:
            total += thread.weight
        if total <= 0:
            return period
        return max(self.params.min_granularity_ns, period * thread.weight // total)

    def should_preempt_on_tick(self, current: Thread, ran_ns: int) -> bool:
        """Slice-expiry check performed from the scheduler tick."""
        left = self.leftmost_vruntime()
        if left is None:
            return False
        slice_ns = self.sched_slice(current, current)
        if ran_ns > slice_ns:
            return True
        # Don't let a far-ahead current run below a waiting leftmost task.
        if ran_ns > self.params.min_granularity_ns:
            if current.vruntime - left > slice_ns * NICE_0_WEIGHT // current.weight:
                return True
        return False

    def should_preempt_on_wakeup(self, current: Thread, woken: Thread) -> bool:
        """Wakeup-preemption check (``check_preempt_wakeup``)."""
        gran = self.params.wakeup_granularity_ns * NICE_0_WEIGHT // woken.weight
        return current.vruntime - woken.vruntime > gran
