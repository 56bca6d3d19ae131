"""Per-vCPU guest execution context: task scheduling and softirq queue.

The guest scheduler is strict-priority (by nice level) with round-robin
rotation among equal-priority tasks at guest timer ticks — a deliberate
simplification of guest CFS that preserves what the experiments need: the
CPU-burn script only runs when nothing else is runnable, and same-priority
application threads share the vCPU.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, TYPE_CHECKING

from repro.errors import GuestError
from repro.guest.ops import GHalt, GKick, GWork
from repro.guest.tasks import TASK_BLOCKED, TASK_FINISHED, GuestTask, TaskBlock, TaskYield

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.os import GuestOS
    from repro.kvm.vcpu import Vcpu

__all__ = ["GuestCpuContext"]


class GuestCpuContext:
    """What one vCPU sees of the guest OS."""

    def __init__(self, os: "GuestOS", vcpu: "Vcpu"):
        self.os = os
        self.vcpu = vcpu
        vcpu.guest_ctx = self
        self.runqueue: Deque[GuestTask] = deque()
        self.current: Optional[GuestTask] = None
        self._softirqs: Deque[object] = deque()
        self.started = False
        self._tick_rotate = False

    # ----------------------------------------------------------------- tasks
    def add_task(self, task: GuestTask) -> None:
        """Add a runnable task to this vCPU's guest runqueue."""
        task.attach(self)
        self.runqueue.append(task)
        self.started = True

    def requeue(self, task: GuestTask) -> None:
        """Put a woken/rotated task back on the runqueue."""
        self.runqueue.append(task)
        # A wakeup can end the vCPU's HLT.
        self.vcpu.kick_guest()

    def send_resched_ipi(self) -> None:
        """Deliver the guest's reschedule IPI to this context's vCPU."""
        from repro.kvm.idt import RESCHEDULE_VECTOR

        self.vcpu.kvm.deliver_vcpu_interrupt(self.vcpu, RESCHEDULE_VECTOR)

    def _pick(self) -> Optional[GuestTask]:
        if not self.runqueue:
            return None
        if len(self.runqueue) == 1:
            # One runnable task trivially has the best nice value.
            return self.runqueue.popleft()
        best_nice = min(t.nice for t in self.runqueue)
        for _ in range(len(self.runqueue)):
            task = self.runqueue.popleft()
            if task.nice == best_nice:
                return task
            self.runqueue.append(task)
        raise GuestError("unreachable: no task at best priority")  # pragma: no cover

    # ------------------------------------------------------------- vCPU feed
    def next_op(self):
        """Produce the next guest operation for the vCPU."""
        while True:
            if self.current is None:
                self.current = self._pick()
                if self.current is None:
                    return GHalt()
            if self._tick_rotate:
                self._tick_rotate = False
                if any(t.nice <= self.current.nice for t in self.runqueue):
                    self.runqueue.append(self.current)
                    self.current = None
                    continue
            task = self.current
            try:
                item = task._gen.send(None)
            except StopIteration:
                task.state = TASK_FINISHED
                self.current = None
                continue
            cls = type(item)
            if cls is GWork or cls is GKick:
                return item
            if cls is TaskYield:
                # A lone runnable task stays current (_pick would hand it
                # straight back); the loop still honours _tick_rotate.
                if self.runqueue:
                    self.current = None
                    self.runqueue.append(task)
                continue
            if cls is TaskBlock:
                self.current = None
                if task._wake_pending:
                    task._wake_pending = False
                    self.runqueue.append(task)
                else:
                    task.state = TASK_BLOCKED
                continue
            raise GuestError(f"task {task.name} yielded unknown item {item!r}")

    def on_timer_tick(self) -> None:
        """Guest timer handler: request a round-robin rotation."""
        self._tick_rotate = True

    # --------------------------------------------------------------- softirq
    def raise_softirq(self, ops) -> None:
        """Queue an ops-generator to run in softirq context after the next
        hard IRQ completes on this vCPU."""
        self._softirqs.append(ops)

    def take_softirq_ops(self):
        """Pop the next queued softirq ops-generator (None if none)."""
        if not self._softirqs:
            return None
        return self._softirqs.popleft()

    # -------------------------------------------------------------- IRQ glue
    def irq_handler_ops(self, vector: int):
        """IDT dispatch for a vector on this vCPU (hard-IRQ ops)."""
        return self.os.dispatch_irq(vector, self)
