"""The structured trace bus: ring-buffered records with category filters.

The bus is the simulator's only recording tracer (the default,
:class:`repro.sim.trace.NullTracer`, records nothing).  Every
``record(t, kind, **fields)`` call site feeds it (the ``enabled`` flag
keeps the disabled path at one attribute check); records are typed
:class:`TraceEvent` tuples, storage is a bounded ring (old records are
evicted, never a hard stop), and filtering can select whole event
*categories* — the subsystems the paper's argument is made of — or
individual kinds:

========== =====================================================
category   kinds
========== =====================================================
exit       ``vm-exit``
irq        ``irq-deliver``, ``irq-handled``
mode_switch ``mode-switch``
redirect   ``irq-redirect``
sched      ``sched-in``, ``sched-out``
net        ``net-tx``, ``net-rx``
span       ``span-mark`` (per-request path milestones, repro.obs.spans)
watchdog   ``watchdog-violation`` (invariant breaches, repro.obs.watchdog)
========== =====================================================

Kinds not in :data:`KIND_CATEGORY` fall into the ``other`` category, so
ad-hoc debugging records are never silently rejected by default.

Ring-eviction semantics
-----------------------
The ring is bounded and **evicts oldest-first**: once ``capacity``
records are retained, accepting a new record silently discards the
oldest one (counted in :attr:`TraceBus.evicted`) — recent history
survives arbitrarily long runs, but anything that reconstructs *linked*
records from the ring must expect holes at the old end.  In particular,
per-request span reconstruction (:func:`repro.obs.spans.collect_traces`)
can find a request whose early milestones were evicted; such traces are
flagged ``truncated`` and reported separately instead of silently
yielding a shortened path.  Size ``capacity`` for the window you intend
to attribute, or filter the bus down to the categories you need.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple

__all__ = ["TraceEvent", "TraceBus", "TRACE_CATEGORIES", "KIND_CATEGORY"]

#: The trace categories, one per instrumented subsystem.
TRACE_CATEGORIES = (
    "exit", "irq", "mode_switch", "redirect", "sched", "net", "span",
    "watchdog", "other",
)

#: Record kind -> category (unknown kinds map to ``other``).
KIND_CATEGORY: Dict[str, str] = {
    "vm-exit": "exit",
    "irq-deliver": "irq",
    "irq-handled": "irq",
    "mode-switch": "mode_switch",
    "irq-redirect": "redirect",
    "sched-in": "sched",
    "sched-out": "sched",
    "net-tx": "net",
    "net-rx": "net",
    "span-mark": "span",
    "watchdog-violation": "watchdog",
}


class TraceEvent(NamedTuple):
    """One structured trace record."""

    t: int
    category: str
    kind: str
    fields: Dict[str, Any]


class TraceBus:
    """Ring-buffered structured trace recorder with category/kind filters.

    Parameters
    ----------
    categories:
        Keep only these categories (see :data:`TRACE_CATEGORIES`); None
        keeps everything.
    kinds:
        Keep only these record kinds; combined (AND) with ``categories``.
    capacity:
        Ring size.  When full, the *oldest* record is evicted (counted in
        :attr:`evicted`) — recent history survives arbitrarily long runs.
    """

    enabled = True

    def __init__(
        self,
        categories: Optional[Iterable[str]] = None,
        kinds: Optional[Iterable[str]] = None,
        capacity: int = 65536,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if categories is not None:
            unknown = set(categories) - set(TRACE_CATEGORIES)
            if unknown:
                raise ValueError(f"unknown trace categories: {sorted(unknown)}")
        self.categories = frozenset(categories) if categories is not None else None
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        #: records accepted (including ones later evicted by ring wrap)
        self.recorded = 0
        #: records evicted by ring overflow (oldest-first)
        self.evicted = 0
        #: records rejected by the category/kind filters
        self.filtered = 0

    # -------------------------------------------------------------- recording
    def record(self, t: int, kind: str, **fields: Any) -> None:
        """Append one record."""
        if self.kinds is not None and kind not in self.kinds:
            self.filtered += 1
            return
        category = KIND_CATEGORY.get(kind, "other")
        if self.categories is not None and category not in self.categories:
            self.filtered += 1
            return
        if len(self._ring) == self.capacity:
            self.evicted += 1
        self._ring.append(TraceEvent(t, category, kind, fields))
        self.recorded += 1

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._ring)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """The retained records, oldest first."""
        return tuple(self._ring)

    def of_kind(self, kind: str) -> List[Tuple[int, Dict[str, Any]]]:
        """All retained records of one kind as ``(time, fields)`` pairs."""
        return [(e.t, e.fields) for e in self._ring if e.kind == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        """Retained record counts per kind."""
        out: Dict[str, int] = {}
        for e in self._ring:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def clear(self) -> None:
        """Drop all retained records and reset the bookkeeping counters."""
        self._ring.clear()
        self.recorded = 0
        self.evicted = 0
        self.filtered = 0
