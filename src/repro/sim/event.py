"""Event objects and the pending-event priority queue.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing insertion counter; two events scheduled for the same instant fire
in the order they were scheduled.  Cancellation is O(1): a cancelled event
stays in the heap but is skipped when popped (lazy deletion), which is the
standard approach for simulators with frequent cancellation (we cancel CPU
segment-completion events on every preemption and interrupt poke).

Hot-path layout
---------------
The heap stores ``(time, seq, event)`` tuples rather than bare events, so
``heapq`` sifts compare plain ints (``seq`` is unique, so the tie-break
never reaches the event itself, which defines no ordering).
``call_soon``-style events go through a FIFO side lane
(:meth:`EventQueue.push_soon`) that skips the heap entirely: the simulator
clock never moves backwards, so those events are already in ``(time, seq)``
order and a deque append/popleft replaces two O(log n) heap operations.
``pop_until`` (and ``pop``, which is ``pop_until`` without a limit) merges
the two lanes by comparing their heads, which preserves the exact global
firing order of a single heap.

Cancelled events are dropped lazily from the top, and additionally pruned
in batches: once enough dead entries accumulate relative to the structure
size, the heap is rebuilt without them so sift costs do not grow with the
cancellation backlog.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue"]

#: Batched pruning kicks in only past this many dead entries (small queues
#: are cheap to skip lazily) and only when dead entries dominate the heap.
_PRUNE_THRESHOLD = 64

#: ``pop_until`` limit that lets every pending event through (``pop``).
_NO_LIMIT = float("inf")


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time (integer ns) at which the event fires.
    fn:
        Callback invoked as ``fn(*args)`` when the event fires.
    """

    __slots__ = ("time", "seq", "fn", "args", "_cancelled", "_fired", "_queue")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        queue: Optional["EventQueue"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False
        self._fired = False
        self._queue = queue

    # State ---------------------------------------------------------------
    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the callback has been invoked."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and may still fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; a no-op after firing.

        Live-count bookkeeping happens here, so cancelling through the event
        directly and through :meth:`Simulator.cancel` stay consistent.
        """
        if self._fired or self._cancelled:
            return
        self._cancelled = True
        queue = self._queue
        if queue is not None:
            queue._note_cancelled(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"<Event t={self.time} seq={self.seq} {state} fn={getattr(self.fn, '__qualname__', self.fn)!r}>"


class EventQueue:
    """Priority queue of :class:`Event` with lazy cancellation."""

    __slots__ = ("_heap", "_fifo", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._fifo: Deque[Event] = deque()
        self._seq = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled, unfired) events."""
        return self._live

    def push(self, time: int, fn: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time`` and return the event."""
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args, self)
        heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def push_soon(self, time: int, fn: Callable[..., Any], args: tuple = ()) -> Event:
        """FIFO fast lane for events at the current instant (``call_soon``).

        ``time`` must be the current simulation time: successive calls then
        carry non-decreasing ``(time, seq)`` keys, so the lane is sorted by
        construction and the heap can be skipped.
        """
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args, self)
        self._fifo.append(ev)
        self._live += 1
        return ev

    # ---------------------------------------------------------- bookkeeping
    def _note_cancelled(self, ev: Event) -> None:
        if self._live <= 0:
            raise SimulationError("cancelled more events than were live")
        self._live -= 1
        self._dead += 1
        if self._dead > _PRUNE_THRESHOLD and self._dead * 2 > len(self._heap) + len(self._fifo):
            self._prune()

    def _prune(self) -> None:
        """Batched removal of cancelled entries (keeps sift costs bounded)."""
        self._heap = [entry for entry in self._heap if not entry[2]._cancelled]
        heapify(self._heap)
        if self._fifo:
            self._fifo = deque(ev for ev in self._fifo if not ev._cancelled)
        self._dead = 0

    # ----------------------------------------------------------- retrieval
    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        heap, fifo = self._heap, self._fifo
        # Dead-entry skip inlined (this runs once per fusion attempt).
        while heap and heap[0][2]._cancelled:
            heappop(heap)
            self._dead -= 1
        while fifo and fifo[0]._cancelled:
            fifo.popleft()
            self._dead -= 1
        if heap:
            if fifo and fifo[0].time <= heap[0][0]:
                return fifo[0].time
            return heap[0][0]
        if fifo:
            return fifo[0].time
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty."""
        return self.pop_until(_NO_LIMIT)

    def pop_until(self, limit: float) -> Optional[Event]:
        """Pop the next live event if its time is ``<= limit``, else None.

        Fuses the peek and the pop for the run loop, so the dead-entry skip
        and the two-lane head comparison happen once per event.
        """
        heap, fifo = self._heap, self._fifo
        while heap and heap[0][2]._cancelled:
            heappop(heap)
            self._dead -= 1
        while fifo and fifo[0]._cancelled:
            fifo.popleft()
            self._dead -= 1
        if heap:
            head = heap[0]
            if fifo and (fifo[0].time < head[0]
                         or (fifo[0].time == head[0] and fifo[0].seq < head[1])):
                if fifo[0].time > limit:
                    return None
                ev = fifo.popleft()
            else:
                if head[0] > limit:
                    return None
                ev = heappop(heap)[2]
        elif fifo:
            if fifo[0].time > limit:
                return None
            ev = fifo.popleft()
        else:
            return None
        ev._fired = True
        self._live -= 1
        return ev

    def clear(self) -> None:
        """Drop every pending event."""
        for _, _, ev in self._heap:
            ev._queue = None
        for ev in self._fifo:
            ev._queue = None
        self._heap.clear()
        self._fifo.clear()
        self._live = 0
        self._dead = 0
