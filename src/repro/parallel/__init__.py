"""Sweep declaration and worker accounting.

The experiment layer declares every figure as a list of
:class:`~repro.parallel.sweep.SweepPoint`; :func:`~repro.parallel.sweep.run_sweep`
runs it serially, and the flow runner (:mod:`repro.flow`), the only
fan-out, runs each point as its own task and caches per task.
"""

from repro.parallel.rusage import snapshot, usage_delta, worker_id
from repro.parallel.sweep import SweepPoint, effective_jobs, pool_context, run_sweep

__all__ = [
    "SweepPoint",
    "effective_jobs",
    "pool_context",
    "run_sweep",
    "snapshot",
    "usage_delta",
    "worker_id",
]
