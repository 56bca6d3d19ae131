"""The vhost I/O thread.

One worker per device (as vhost-net creates one kernel thread per VM
device).  Active handlers are serviced round-robin; when none are active
the worker sleeps until a guest kick (ioeventfd), wire traffic, or a
handler requeue wakes it — so, unlike ELVIS-style dedicated-core polling,
it consumes no CPU at idle (the property Section II-C criticises ELVIS
for losing).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Set

from repro.sched.thread import MODE_KERNEL, Block, Consume, Thread, YieldCPU

__all__ = ["VhostWorker"]


class VhostWorker(Thread):
    """Host kernel thread servicing virtqueue handlers."""

    def __init__(self, machine, name: str, pinned_core: Optional[int] = None, nice: int = 0):
        super().__init__(machine, name, nice=nice, pinned_core=pinned_core)
        self._active: Deque[object] = deque()
        self._active_set: Set[int] = set()
        self.rounds = 0
        self.wakeups = 0
        # Pre-bound once: requeue timers fire on every quota hit / weight
        # exhaustion, and rebinding the method per call allocates.
        self._activate_cb = self.activate
        self.sim.obs.counters.register(f"vhost.worker.{name}", self, ("rounds", "wakeups"))

    def activate(self, handler) -> None:
        """Queue a handler for service (idempotent while queued)."""
        key = id(handler)
        if key in self._active_set:
            return
        self._active_set.add(key)
        self._active.append(handler)
        self.wake()

    def activate_delayed(self, handler) -> None:
        """Requeue a handler after the I/O thread's scheduling granularity.

        Used by handlers that stop mid-stream (quota hit, weight exhausted,
        ring stall): the next service round happens after ``repoll_delay_ns``
        rather than back-to-back — the slack that lets ES2's polling mode
        self-sustain (see :class:`repro.config.CostModel`).
        """
        self.sim.schedule(self.machine.cost.repoll_delay_ns, self._activate_cb, handler)

    def activate_after(self, handler, delay_ns: int) -> None:
        """Queue a handler for service after an explicit delay."""
        self.sim.schedule(delay_ns, self._activate_cb, handler)

    def body(self):
        """Thread behaviour (generator of CPU/scheduling requests)."""
        cost = self.machine.cost
        wakeup_ns = cost.vhost_wakeup_ns
        switch_ns = cost.handler_switch_ns
        active = self._active
        active_set = self._active_set
        fresh_wakeup = False
        while True:
            if not active:
                yield Block()
                # eventfd read + handler lookup on wakeup
                yield Consume(wakeup_ns, MODE_KERNEL)
                self.wakeups += 1
                fresh_wakeup = True
                continue
            handler = active.popleft()
            active_set.discard(id(handler))
            self.rounds += 1
            if not fresh_wakeup:
                # Rotation between handler rounds costs the switch overhead;
                # the first round after a wakeup already paid the wakeup cost.
                yield Consume(switch_ns, MODE_KERNEL)
            fresh_wakeup = False
            yield from handler.run(self)
            # Fairness point: let CFS rotate to other host threads if needed.
            yield YieldCPU()
