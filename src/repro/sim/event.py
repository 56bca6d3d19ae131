"""The pending-event priority queue.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing insertion counter; two events scheduled for the same instant fire
in the order they were scheduled.  Cancellation is O(1): a cancelled event
stays in the heap but is skipped when popped (lazy deletion), which is the
standard approach for simulators with frequent cancellation (we cancel CPU
segment-completion events on every preemption and interrupt poke).

Hot-path layout
---------------
An event *is* its heap entry: the list ``[time, seq, fn, args]`` that
:meth:`EventQueue.push` builds, the same layout
:class:`~repro.sched.cfs.CfsRunqueue` uses for its ``[vruntime, tid, seq,
thread]`` entries.  ``heapq`` sifts compare entries element by element, and
``seq`` is unique, so a comparison never reaches the callback.  The entry is
also the handle ``Simulator.schedule`` returns; only :mod:`repro.sim` reads
its slots, every other holder keeps it opaque and passes it back to
:meth:`Simulator.cancel`.  The callback slot is the event's state: cancelling
sets it to None (the entry is then *dead*), and the run loop clears it as it
fires the entry, so a fired or cancelled entry cannot be cancelled again.

``call_soon``-style events go through a FIFO side lane
(:meth:`EventQueue.push_soon`) that skips the heap entirely: the simulator
clock never moves backwards, so those entries are already in ``(time, seq)``
order and a deque append/popleft replaces two O(log n) heap operations.
``pop_until`` (and ``pop``, which is ``pop_until`` without a limit) merges
the two lanes with one list comparison of their heads, which preserves the
exact global firing order of a single heap.

Dead entries are dropped lazily from the top, and additionally pruned in
batches: once enough of them accumulate relative to the structure size, the
heap is rebuilt without them so sift costs do not grow with the
cancellation backlog.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, List, Optional

from repro.errors import SimulationError

__all__ = ["EventQueue"]

#: Batched pruning kicks in only past this many dead entries (small queues
#: are cheap to skip lazily) and only when dead entries dominate the heap.
_PRUNE_THRESHOLD = 64

#: ``pop_until`` limit that lets every pending event through (``pop``).
_NO_LIMIT = float("inf")


class EventQueue:
    """Two-lane priority queue of ``[time, seq, fn, args]`` entries with
    lazy cancellation.

    :meth:`pop` and :meth:`pop_until` hand the next entry out still armed:
    the caller fires it and clears its callback slot as it does
    (``entry[2] = None``), as :class:`~repro.sim.simulator.Simulator`'s run
    loop does, so that cancelling it afterwards is a no-op.
    """

    __slots__ = ("_heap", "_fifo", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._fifo: Deque[list] = deque()
        self._seq = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled, unfired) events."""
        return self._live

    def push(self, time: int, fn: Callable[..., Any], args: tuple = ()) -> list:
        """Schedule ``fn(*args)`` at absolute time ``time``; return the entry."""
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, fn, args]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def push_soon(self, time: int, fn: Callable[..., Any], args: tuple = ()) -> list:
        """FIFO fast lane for events at the current instant (``call_soon``).

        ``time`` must be the current simulation time: successive calls then
        carry non-decreasing ``(time, seq)`` keys, so the lane is sorted by
        construction and the heap can be skipped.
        """
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, fn, args]
        self._fifo.append(entry)
        self._live += 1
        return entry

    def cancel(self, entry: list) -> bool:
        """Kill a pending entry.  Returns True if it was still pending;
        cancelling a fired or already cancelled entry changes nothing."""
        if entry[2] is None:
            return False
        if self._live <= 0:
            raise SimulationError("cancelled more events than were live")
        entry[2] = None
        self._live -= 1
        self._dead = dead = self._dead + 1
        if dead > _PRUNE_THRESHOLD and dead * 2 > len(self._heap) + len(self._fifo):
            self._prune()
        return True

    def _prune(self) -> None:
        """Batched removal of dead entries (keeps sift costs bounded)."""
        self._heap = [entry for entry in self._heap if entry[2] is not None]
        heapify(self._heap)
        if self._fifo:
            self._fifo = deque(entry for entry in self._fifo if entry[2] is not None)
        self._dead = 0

    # ----------------------------------------------------------- retrieval
    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        heap, fifo = self._heap, self._fifo
        # Dead-entry skip inlined (this runs once per fusion attempt).
        while heap and heap[0][2] is None:
            heappop(heap)
            self._dead -= 1
        while fifo and fifo[0][2] is None:
            fifo.popleft()
            self._dead -= 1
        if heap:
            if fifo and fifo[0][0] <= heap[0][0]:
                return fifo[0][0]
            return heap[0][0]
        if fifo:
            return fifo[0][0]
        return None

    def pop(self) -> Optional[list]:
        """Remove and return the next live entry, or None if empty."""
        return self.pop_until(_NO_LIMIT)

    def pop_until(self, limit: float) -> Optional[list]:
        """Pop the next live entry if its time is ``<= limit``, else None.

        Fuses the peek and the pop for the run loop, so the dead-entry skip
        and the two-lane head comparison happen once per event.
        """
        heap, fifo = self._heap, self._fifo
        while heap and heap[0][2] is None:
            heappop(heap)
            self._dead -= 1
        while fifo and fifo[0][2] is None:
            fifo.popleft()
            self._dead -= 1
        if heap:
            head = heap[0]
            # ``seq`` is unique, so the list comparison is ``(time, seq)``.
            if fifo and fifo[0] < head:
                if fifo[0][0] > limit:
                    return None
                entry = fifo.popleft()
            else:
                if head[0] > limit:
                    return None
                entry = heappop(heap)
        elif fifo:
            if fifo[0][0] > limit:
                return None
            entry = fifo.popleft()
        else:
            return None
        self._live -= 1
        return entry
