"""Guest operations: the protocol between guest code and its vCPU.

Guest-side activities (task steps, interrupt handlers, softirq work) are
generators yielding these operations; the vCPU thread translates them into
CPU segments, VM exits, and interrupt windows.
"""

from __future__ import annotations

from repro.errors import GuestError

__all__ = ["GWork", "GKick", "GHalt"]


class GWork:
    """Burn ``ns`` of guest CPU time (interruptible by virtual interrupts
    unless the guest currently has IRQs disabled)."""

    __slots__ = ("ns",)

    def __init__(self, ns: int):
        if ns < 0:
            raise GuestError(f"negative guest work: {ns}")
        if type(ns) is not int:
            ns = int(ns)
        self.ns = ns


class GKick:
    """Notify a virtqueue (the guest driver's ``virtqueue_kick``).

    Whether this causes an I/O-instruction VM exit depends on the queue's
    notification-suppression state — the exact mechanism Algorithm 1
    manipulates.
    """

    __slots__ = ("queue",)

    def __init__(self, queue):
        self.queue = queue


class GHalt:
    """The guest has nothing runnable: execute HLT (exits to the hypervisor
    and blocks until an interrupt arrives).  Experiments avoid it with a
    CPU-burn task, exactly as the paper does (Section VI-C)."""

    __slots__ = ()
