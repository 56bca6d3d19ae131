"""VM-exit reasons and per-cause statistics.

The paper reports exits in four buckets (Table I / Fig. 5): *Interrupt
Delivery* (External Interrupt exits), *Interrupt Completion* (APIC-access
exits, almost all EOI writes), *Guest's I/O Request* (I/O-instruction
exits), and *Others*.  :data:`EXIT_CATEGORY` maps fine-grained reasons onto
those buckets so experiment code reproduces the same tables.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.units import rate_per_sec

__all__ = [
    "ExitReason", "ExitStats", "EXIT_CATEGORY",
    "EXIT_EXTERNAL_INTERRUPT", "EXIT_APIC_ACCESS", "EXIT_IO_INSTRUCTION",
    "EXIT_HLT", "EXIT_EPT_VIOLATION", "EXIT_PENDING_INTERRUPT",
]


class ExitReason(enum.Enum):
    """Fine-grained VM-exit causes modelled by the simulator."""

    EXTERNAL_INTERRUPT = "external-interrupt"
    APIC_ACCESS = "apic-access"
    IO_INSTRUCTION = "io-instruction"
    HLT = "hlt"
    EPT_VIOLATION = "ept-violation"
    PENDING_INTERRUPT = "pending-interrupt"

    # Identity hashing, as CpuMode: every exit updates two counter dicts
    # keyed by its reason, and Enum.__hash__ is Python code.  Reasons key
    # only insertion-ordered dicts, never an iterated set.
    __hash__ = object.__hash__


# Hot code reads members through these module constants (see CpuMode's).
EXIT_EXTERNAL_INTERRUPT = ExitReason.EXTERNAL_INTERRUPT
EXIT_APIC_ACCESS = ExitReason.APIC_ACCESS
EXIT_IO_INSTRUCTION = ExitReason.IO_INSTRUCTION
EXIT_HLT = ExitReason.HLT
EXIT_EPT_VIOLATION = ExitReason.EPT_VIOLATION
EXIT_PENDING_INTERRUPT = ExitReason.PENDING_INTERRUPT


#: Paper-style reporting buckets.
EXIT_CATEGORY: Dict[ExitReason, str] = {
    ExitReason.EXTERNAL_INTERRUPT: "interrupt-delivery",
    ExitReason.APIC_ACCESS: "interrupt-completion",
    ExitReason.IO_INSTRUCTION: "io-request",
    ExitReason.HLT: "others",
    ExitReason.EPT_VIOLATION: "others",
    ExitReason.PENDING_INTERRUPT: "others",
}

CATEGORIES = ("interrupt-delivery", "interrupt-completion", "io-request", "others")


class ExitStats:
    """Per-VM (or per-vCPU) exit counters with mark-based rate reporting."""

    def __init__(self) -> None:
        self.counts: Dict[ExitReason, int] = {r: 0 for r in ExitReason}
        self._marks: Dict[str, tuple] = {}

    # ------------------------------------------------------------- recording
    def record(self, reason: ExitReason) -> None:
        """Append one record."""
        self.counts[reason] += 1

    def as_counts(self) -> Dict[str, int]:
        """Per-reason cumulative counts keyed by reason value (for registries)."""
        return {reason.value: n for reason, n in self.counts.items()}

    def reset(self) -> None:
        """Zero every counter and drop all marks (between measurement runs)."""
        self.counts = {r: 0 for r in ExitReason}
        self._marks.clear()

    @property
    def total(self) -> int:
        """Sum over all categories/causes."""
        return sum(self.counts.values())

    def by_category(self) -> Dict[str, int]:
        """Counts folded into the paper's four buckets."""
        out = {c: 0 for c in CATEGORIES}
        for reason, n in self.counts.items():
            out[EXIT_CATEGORY[reason]] += n
        return out

    # ----------------------------------------------------------------- marks
    def mark(self, name: str, t: int) -> None:
        """Snapshot all counters at time ``t`` (to exclude warm-up)."""
        self._marks[name] = (t, dict(self.counts))

    def rates_between(self, start: str, end: str) -> Dict[str, float]:
        """Per-category exits/second between two marks."""
        t0, c0 = self._marks[start]
        t1, c1 = self._marks[end]
        elapsed = t1 - t0
        out = {c: 0.0 for c in CATEGORIES}
        for reason in ExitReason:
            delta = c1[reason] - c0[reason]
            out[EXIT_CATEGORY[reason]] += rate_per_sec(delta, elapsed)
        return out

    def total_rate_between(self, start: str, end: str) -> float:
        """Total exits/second between two marks."""
        return sum(self.rates_between(start, end).values())

    def count_between(self, start: str, end: str, reason: Optional[ExitReason] = None) -> int:
        """Observation count between two named marks."""
        t0, c0 = self._marks[start]
        t1, c1 = self._marks[end]
        if reason is not None:
            return c1[reason] - c0[reason]
        return sum(c1[r] - c0[r] for r in ExitReason)
