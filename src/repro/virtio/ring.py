"""The virtqueue: a bounded ring with two-way event suppression.

One virtqueue carries buffers in one direction (TX: guest→host, RX:
host→guest).  Two independent suppression mechanisms model the virtio
``flags`` / ``avail_event`` / ``used_event`` machinery:

* **notify suppression** (backend → guest): while set, the guest driver's
  ``virtqueue_kick`` is a no-op — no I/O-instruction VM exit.  Stock vhost
  sets it only while actively servicing the queue; ES2's polling mode keeps
  it set permanently (Section V-A: "permanently disable the notification
  mechanism in the polling mode").
* **interrupt suppression** (guest → backend): while set, the backend does
  not signal the guest when it adds used buffers.  The guest's NAPI sets it
  for the duration of a poll session (classic interrupt moderation).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import VirtioError

__all__ = ["Virtqueue"]


class Virtqueue:
    """A single-direction virtqueue with virtio-style event suppression."""

    def __init__(self, name: str, size: int = 256):
        if size <= 0:
            raise VirtioError("virtqueue size must be positive")
        self.name = name
        self.size = size
        self._ring: Deque[object] = deque()
        self._notify_suppressed = False
        self._interrupt_suppressed = False
        #: backend handler notified on guest kicks (installed by vhost)
        self.backend = None
        #: called when a pop reopens space in a previously-full ring
        self.space_callback: Optional[Callable] = None
        # statistics
        self.kicks_exited = 0
        self.kicks_suppressed = 0
        self.added = 0
        self.popped = 0
        self.full_events = 0

    # --------------------------------------------------------------- content
    def __len__(self) -> int:
        return len(self._ring)

    @property
    def is_empty(self) -> bool:
        """True when the ring holds no buffers."""
        return not self._ring

    @property
    def is_full(self) -> bool:
        """True when the ring is at capacity."""
        return len(self._ring) >= self.size

    def free_slots(self) -> int:
        """Number of free descriptor slots."""
        return self.size - len(self._ring)

    def push(self, item) -> None:
        """Producer side: publish a buffer.  Caller must check :attr:`is_full`."""
        ring = self._ring
        if len(ring) >= self.size:
            self.full_events += 1
            raise VirtioError(f"{self.name}: push to a full ring")
        ring.append(item)
        self.added += 1

    def pop(self):
        """Consumer side: take the next buffer, or None if empty."""
        ring = self._ring
        if not ring:
            return None
        was_full = len(ring) >= self.size
        self.popped += 1
        item = ring.popleft()
        if was_full and self.space_callback is not None:
            self.space_callback()
        return item

    def peek(self):
        """Next buffer without consuming it (None if empty)."""
        return self._ring[0] if self._ring else None

    # ----------------------------------------- guest-kick (notify) direction
    def guest_should_kick(self) -> bool:
        """Checked by the guest driver after publishing buffers.

        Models virtio's EVENT_IDX semantics: a notification fires once per
        *arming* by the backend.  The kick consumes the arming, so further
        publishes stay silent until the backend re-arms (enable_notify) —
        this is why a burst costs roughly one I/O-instruction exit rather
        than one per packet.
        """
        if self._notify_suppressed:
            return False
        self._notify_suppressed = True  # the kick consumes the arming
        return True

    def note_kick(self, exited: bool) -> None:
        """Record whether a guest kick caused an exit (statistics)."""
        if exited:
            self.kicks_exited += 1
        else:
            self.kicks_suppressed += 1

    def suppress_notify(self) -> None:
        """Disable guest notifications for this queue (backend side)."""
        self._notify_suppressed = True

    def enable_notify(self) -> None:
        """Re-arm guest notifications for this queue (backend side)."""
        self._notify_suppressed = False

    @property
    def notify_suppressed(self) -> bool:
        """True while guest notifications are disabled/disarmed."""
        return self._notify_suppressed

    def backend_notified(self) -> None:
        """The guest's kick trapped to the hypervisor (ioeventfd fired)."""
        if self.backend is None:
            raise VirtioError(f"{self.name}: kick with no backend attached")
        self.backend.on_guest_kick()

    # ------------------------------------- backend-interrupt (RX) direction
    def suppress_interrupts(self) -> None:
        """Disable backend-to-guest interrupts (guest NAPI side)."""
        self._interrupt_suppressed = True

    def enable_interrupts(self) -> None:
        """Re-enable backend-to-guest interrupts."""
        self._interrupt_suppressed = False

    def guest_wants_interrupt(self) -> bool:
        """Checked by the backend after adding used buffers."""
        return not self._interrupt_suppressed
