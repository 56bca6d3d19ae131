"""The default tracer: records nothing.

Tracing is off by default (the :class:`NullTracer` costs one attribute check
per potential record).  Tests and debugging sessions install a
:class:`repro.obs.TraceBus` instead (``Simulator(trace=TraceBus(...))`` or
``sim.trace_bus(categories=["exit"])``), filter it by kind or category, and
assert on the recorded sequence — e.g. that a posted interrupt never
produced a VM exit.
"""

from __future__ import annotations

from typing import Any

__all__ = ["NullTracer"]


class NullTracer:
    """No-op tracer; `enabled` is False so hot paths can skip formatting."""

    enabled = False

    def record(self, t: int, kind: str, **fields: Any) -> None:  # pragma: no cover
        """Append one record."""
        pass

    def __len__(self) -> int:
        return 0
