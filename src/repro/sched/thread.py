"""Schedulable threads and the CPU-request protocol.

A thread's behaviour is a generator (its :meth:`Thread.body`) that yields
requests to the core engine:

``Consume(ns, mode, interruptible)``
    Burn ``ns`` of CPU time in the given accounting mode.  The generator is
    resumed with the number of nanoseconds actually consumed: equal to the
    request unless the segment was *poked* early (``interruptible=True`` and
    someone called :meth:`Thread.poke`).  Scheduler preemption is invisible:
    the segment simply continues at the next dispatch.

``Block()``
    Leave the runqueue until someone calls :meth:`Thread.wake`.  A wake that
    races ahead of the block is not lost (classic lost-wakeup guard).

``YieldCPU()``
    Stay runnable but invite a reschedule (``sched_yield`` semantics).
"""

from __future__ import annotations

import enum
import itertools
from typing import Generator, Optional, Union

from repro.errors import SchedulerError

__all__ = [
    "CpuMode", "Consume", "Block", "YieldCPU", "Thread", "ThreadState", "Request",
    "MODE_GUEST", "MODE_HOST", "MODE_KERNEL", "MODE_SWITCH", "MODE_IDLE",
    "THREAD_NEW", "THREAD_READY", "THREAD_RUNNING", "THREAD_BLOCKED", "THREAD_FINISHED",
]

_tid_counter = itertools.count(1)


class CpuMode(enum.Enum):
    """What a CPU segment is accounted as."""

    GUEST = "guest"  #: vCPU running guest code (non-root mode)
    HOST = "host"  #: hypervisor work on behalf of a vCPU (root mode)
    KERNEL = "kernel"  #: ordinary host-kernel threads (vhost workers ...)
    SWITCH = "switch"  #: context-switch overhead
    IDLE = "idle"  #: core idle

    # Identity hashing: Enum.__hash__ is Python code that hashes the member
    # *name*, run on every mode_exec/mode_time update (once per segment).
    # Members are singletons and modes key only insertion-ordered dicts,
    # never an iterated set, so the id-based hash cannot change any
    # deterministic ordering (DESIGN.md §12, "Per-segment interpreter cost").
    __hash__ = object.__hash__


# Hot code reads members through these module constants: a member loaded
# through its class goes through EnumType.__getattr__ and costs over
# 100 ns more than a global load (DESIGN.md §12).
MODE_GUEST = CpuMode.GUEST
MODE_HOST = CpuMode.HOST
MODE_KERNEL = CpuMode.KERNEL
MODE_SWITCH = CpuMode.SWITCH
MODE_IDLE = CpuMode.IDLE


class Consume:
    """Request to burn CPU time."""

    __slots__ = ("remaining", "consumed", "mode", "interruptible")

    def __init__(self, ns: int, mode: CpuMode = MODE_KERNEL, interruptible: bool = False):
        if ns < 0:
            raise SchedulerError(f"cannot consume negative time ({ns})")
        if type(ns) is not int:
            ns = int(ns)
        self.remaining = ns
        self.consumed = 0
        self.mode = mode
        self.interruptible = interruptible


class Block:
    """Request to sleep until :meth:`Thread.wake`."""

    __slots__ = ()


class YieldCPU:
    """Request to voluntarily invite a reschedule while staying runnable."""

    __slots__ = ()


Request = Union[Consume, Block, YieldCPU]


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"  #: on a runqueue, not on a CPU
    RUNNING = "running"  #: current on some core
    BLOCKED = "blocked"
    FINISHED = "finished"


THREAD_NEW = ThreadState.NEW
THREAD_READY = ThreadState.READY
THREAD_RUNNING = ThreadState.RUNNING
THREAD_BLOCKED = ThreadState.BLOCKED
THREAD_FINISHED = ThreadState.FINISHED


class Thread:
    """A host-schedulable entity (vCPU thread, vhost worker, ...).

    Subclasses override :meth:`body`.  ``is_vcpu`` marks threads whose
    dispatch/undispatch must fire the KVM preemption notifiers
    (``kvm_sched_in`` / ``kvm_sched_out`` in the paper's Section V-B).
    """

    is_vcpu = False

    def __init__(self, machine, name: str, nice: int = 0, pinned_core: Optional[int] = None):
        from repro.sched.cfs import nice_to_weight

        self.machine = machine
        self.sim = machine.sim
        self.name = name
        self.tid = next(_tid_counter)
        self.nice = nice
        self.weight = nice_to_weight(nice)
        self.pinned_core = pinned_core
        self.state = THREAD_NEW
        self.core = None  # the Core this thread is queued on / running on
        #: CFS virtual runtime (weighted ns)
        self.vruntime = 0
        #: total on-CPU nanoseconds
        self.sum_exec = 0
        #: per-mode on-CPU nanoseconds
        self.mode_exec = {mode: 0 for mode in CpuMode}
        # engine state
        self._gen: Optional[Generator] = None
        self._request: Optional[Consume] = None
        self._resume_value = None
        self._wake_pending = False
        self._poke_pending = False

    # ------------------------------------------------------------- overrides
    def body(self) -> Generator[Request, int, None]:
        """The thread's behaviour; subclasses must override."""
        raise NotImplementedError
        yield  # pragma: no cover

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Create the generator and make the thread runnable."""
        if self.state is not THREAD_NEW:
            raise SchedulerError(f"{self.name}: start() on non-new thread ({self.state})")
        self._gen = self.body()
        self.state = THREAD_BLOCKED  # wake() below transitions to READY
        self.wake()

    def wake(self) -> None:
        """Make a blocked thread runnable (idempotent, race-safe)."""
        state = self.state
        if state is THREAD_READY or state is THREAD_RUNNING:
            self._wake_pending = True
            return
        if state is THREAD_FINISHED:
            return
        if state is THREAD_NEW:
            raise SchedulerError(f"{self.name}: wake() before start()")
        self._wake_pending = False
        self.machine.placement.enqueue_woken(self)

    def poke(self) -> None:
        """Interrupt the thread's current *interruptible* CPU segment.

        Used to deliver interrupts at their exact arrival instant.  If the
        thread is not currently running an interruptible segment the poke is
        remembered and consumed at the next interruptible yield point.
        """
        self._poke_pending = True
        if (
            self.state is THREAD_RUNNING
            and self.core is not None
            and self.core.current is self
            and self._request is not None
            and self._request.interruptible
        ):
            self.core.poke_current()

    # ----------------------------------------------------------------- hooks
    def on_sched_in(self, core) -> None:
        """Called when the thread is dispatched onto a core."""

    def on_sched_out(self, core) -> None:
        """Called when the thread is taken off a core."""

    @property
    def runnable(self) -> bool:
        """True while the thread is on a runqueue or a CPU."""
        state = self.state
        return state is THREAD_READY or state is THREAD_RUNNING

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name} tid={self.tid} {self.state.value}>"
