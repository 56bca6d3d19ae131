"""Parallel experiment execution: sweep fan-out and worker accounting.

The experiment layer expresses every figure as a list of
:class:`~repro.parallel.sweep.SweepPoint` and hands it to
:func:`~repro.parallel.sweep.run_sweep`, which runs the points serially or
over a ``multiprocessing`` pool (``--jobs``).  Results are identical for
every jobs value — see the determinism test in
``tests/test_parallel_sweep.py``.  Results are cached per flow task
(:mod:`repro.flow.state`), never per sweep point.
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
