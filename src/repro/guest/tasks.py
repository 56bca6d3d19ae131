"""Guest tasks: application threads inside the guest OS model.

A guest task's behaviour is a generator yielding :class:`~repro.guest.ops.GWork`
and :class:`~repro.guest.ops.GKick` (passed through to the vCPU), plus the
task-control requests :class:`TaskBlock` and :class:`TaskYield` interpreted
by the per-vCPU guest scheduler.  Tasks are bound to one vCPU (no guest-side
migration), mirroring how the paper pins one netperf thread per vCPU.
"""

from __future__ import annotations

import enum
from typing import Generator, Optional

from repro.errors import GuestError
from repro.guest.ops import GWork
from repro.units import us

__all__ = [
    "TaskBlock", "TaskYield", "TaskState", "GuestTask", "CpuBurnTask",
    "TASK_NEW", "TASK_RUNNABLE", "TASK_BLOCKED", "TASK_FINISHED",
]


class TaskBlock:
    """Sleep until :meth:`GuestTask.wake_task` (socket wait, etc.)."""

    __slots__ = ()


class TaskYield:
    """Voluntarily let same-priority siblings run."""

    __slots__ = ()


#: the stateless request :class:`CpuBurnTask` yields on every chunk
_YIELD = TaskYield()


class TaskState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    FINISHED = "finished"


# Hot code reads members through these module constants, as with
# repro.sched.thread's CpuMode and ThreadState.
TASK_NEW = TaskState.NEW
TASK_RUNNABLE = TaskState.RUNNABLE
TASK_BLOCKED = TaskState.BLOCKED
TASK_FINISHED = TaskState.FINISHED


class GuestTask:
    """Base class for guest application threads."""

    def __init__(self, name: str, nice: int = 0):
        self.name = name
        self.nice = nice
        self.state = TASK_NEW
        self.context = None  # GuestCpuContext, set when the task is added
        self._gen: Optional[Generator] = None
        self._wake_pending = False

    # ------------------------------------------------------------- overrides
    def body(self):
        """The task's behaviour; subclasses must override."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -------------------------------------------------------------- plumbing
    def attach(self, context) -> None:
        """Bind the task to a guest context and create its generator."""
        if self.context is not None:
            raise GuestError(f"task {self.name} attached twice")
        self.context = context
        self._gen = self.body()
        self.state = TASK_RUNNABLE

    def wake_task(self, waker_context=None) -> None:
        """Make a blocked task runnable again (guest-internal wakeup).

        ``waker_context`` identifies the vCPU the wake originates from: a
        cross-vCPU wake sends the guest's reschedule IPI to the target vCPU
        (Linux ``smp_send_reschedule``) — a virtual interrupt that costs VM
        exits on the baseline path and is posted exit-free under PI.  Wakes
        from host context (e.g. a TX-ring space callback) pass None.
        """
        if self.state is TASK_BLOCKED:
            self._wake_pending = False
            self.state = TASK_RUNNABLE
            self.context.requeue(self)
            if waker_context is not None and waker_context is not self.context:
                self.context.send_resched_ipi()
        elif self.state is TASK_RUNNABLE:
            self._wake_pending = True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name} {self.state.value}>"


class CpuBurnTask(GuestTask):
    """The paper's "lowest-priority CPU-intensive script" (Section VI-C).

    Keeps the vCPU always runnable so HLT exits never occur, without
    starving real work (it runs at the lowest guest priority).
    """

    def __init__(self, name: str = "cpuburn", chunk_ns: int = us(100)):
        super().__init__(name, nice=19)
        self.chunk_ns = chunk_ns
        self.burned = 0

    def body(self):
        """Thread behaviour (generator of CPU/scheduling requests)."""
        chunk = self.chunk_ns
        work = GWork(chunk)
        while True:
            yield work
            self.burned += chunk
            yield _YIELD
