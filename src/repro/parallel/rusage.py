"""Per-process resource accounting for flow task workers.

The flow runner (:mod:`repro.flow.runner`) wraps every task execution in a
:func:`snapshot` / :func:`usage_delta` pair taken *inside the worker
process*, so the recorded CPU time and peak-RSS growth belong to the task
that ran, not to the parent that scheduled it.

Semantics worth knowing:

* CPU user/system seconds are ``getrusage(RUSAGE_SELF)`` deltas — exact
  per-process accounting, monotone within a process.
* ``ru_maxrss`` is a process-lifetime high-water mark, so the reported
  peak-RSS *delta* is how much this task raised the worker's peak; a task
  running in a pool worker whose earlier task peaked higher legitimately
  reports 0.
* On platforms without the :mod:`resource` module everything degrades to
  zeros rather than failing — accounting is an observer, never a gate.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Tuple

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

__all__ = ["ResourceSnapshot", "snapshot", "usage_delta", "worker_id"]

#: (cpu_user_s, cpu_sys_s, peak_rss_kb) for the current process.
ResourceSnapshot = Tuple[float, float, int]


def snapshot() -> ResourceSnapshot:
    """Current-process CPU seconds and peak RSS (KiB)."""
    if _resource is None:  # pragma: no cover - non-POSIX
        return (0.0, 0.0, 0)
    ru = _resource.getrusage(_resource.RUSAGE_SELF)
    peak_kb = int(ru.ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak_kb //= 1024
    return (float(ru.ru_utime), float(ru.ru_stime), peak_kb)


def usage_delta(before: ResourceSnapshot, after: ResourceSnapshot) -> Dict[str, float]:
    """The resource cost between two snapshots, clamped non-negative."""
    return {
        "cpu_user_s": max(0.0, after[0] - before[0]),
        "cpu_sys_s": max(0.0, after[1] - before[1]),
        "peak_rss_kb": max(0, int(after[2]) - int(before[2])),
    }


def worker_id() -> str:
    """Stable label for the executing process (``pid:<n>``)."""
    return f"pid:{os.getpid()}"
